// Physical design: the paper's §2.1 toolbox — live aggregate projections
// that maintain pre-computed partial aggregates at load time, and
// flattened tables that denormalize dimension attributes into facts with
// a refresh mechanism.
package main

import (
	"fmt"
	"log"
	"time"

	"eon"
)

func main() {
	db, err := eon.Create(eon.Config{
		Mode: eon.ModeEon,
		Nodes: []eon.NodeSpec{
			{Name: "node1"}, {Name: "node2"}, {Name: "node3"},
		},
		ShardCount: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	s := db.NewSession()
	exec := func(q string) {
		if _, err := s.Execute(q); err != nil {
			log.Fatalf("%s: %v", q, err)
		}
	}

	// A dimension table and a fact table with a flattened column: every
	// loaded fact row denormalizes the product name at load time, so
	// queries never need the join.
	exec(`CREATE TABLE products (p_id INTEGER, p_name VARCHAR)`)
	exec(`CREATE PROJECTION products_p AS SELECT * FROM products ORDER BY p_id UNSEGMENTED ALL NODES`)
	exec(`INSERT INTO products VALUES (1, 'anvil'), (2, 'rocket'), (3, 'magnet')`)

	exec(`CREATE TABLE orders (
		o_id INTEGER, product_id INTEGER, qty INTEGER,
		product_name VARCHAR SET USING products.p_name ON product_id = products.p_id
	)`)
	exec(`CREATE PROJECTION orders_p AS SELECT * FROM orders ORDER BY o_id SEGMENTED BY HASH(o_id) ALL NODES`)
	// A live aggregate projection: per-product order counts and total
	// quantity, maintained incrementally at every load.
	exec(`CREATE PROJECTION orders_agg AS SELECT product_name, COUNT(*) AS n, SUM(qty) AS total
		FROM orders GROUP BY product_name`)

	for i := 1; i <= 300; i++ {
		exec(fmt.Sprintf(`INSERT INTO orders VALUES (%d, %d, %d, NULL)`, i, i%3+1, i%7+1))
	}

	// The flattened column was filled at load: no join needed.
	res, err := s.Query(`SELECT o_id, product_name FROM orders WHERE o_id <= 3 ORDER BY o_id`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("flattened rows (no join executed):")
	for _, r := range res.Rows() {
		fmt.Printf("  order %s -> %s\n", r[0], r[1])
	}

	// The aggregate query is answered from the live aggregate
	// projection's partial groups, not by scanning 300 base rows.
	start := time.Now()
	res, err = s.Query(`SELECT product_name, COUNT(*) AS n, SUM(qty) AS total
		FROM orders GROUP BY product_name ORDER BY total DESC`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nper-product totals (served by the live aggregate, %v):\n", time.Since(start).Round(time.Microsecond))
	for _, r := range res.Rows() {
		fmt.Printf("  %-8s orders=%-4s qty=%s\n", r[0], r[1], r[2])
	}

	// The dimension changes; refresh recomputes the flattened column.
	exec(`UPDATE products SET p_name = 'mega-anvil' WHERE p_id = 1`)
	n, err := db.RefreshColumns("orders")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrefreshed flattened columns (%d rows refreshed)\n", n)
	res, err = s.Query(`SELECT COUNT(*) FROM orders WHERE product_name = 'mega-anvil'`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("orders now labeled mega-anvil: %s\n", res.Rows()[0][0])
}
