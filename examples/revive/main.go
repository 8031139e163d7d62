// Revive: durability from shared storage (paper §3.5). The cluster
// uploads its catalog on a sync interval; after the compute instances
// are gone, a brand-new cluster revives from the shared storage alone —
// discarding any commits past the consensus truncation version.
package main

import (
	"fmt"
	"log"

	"eon"
)

func main() {
	shared := eon.NewMemStore() // stands in for an S3 bucket

	db, err := eon.Create(eon.Config{
		Mode: eon.ModeEon,
		Nodes: []eon.NodeSpec{
			{Name: "node1"}, {Name: "node2"}, {Name: "node3"},
		},
		ShardCount: 3,
		Shared:     shared,
	})
	if err != nil {
		log.Fatal(err)
	}
	s := db.NewSession()
	mustExec(s, `CREATE TABLE events (id INTEGER, kind VARCHAR)`)
	mustExec(s, `INSERT INTO events VALUES (1, 'signup'), (2, 'login'), (3, 'purchase')`)

	// Catalog sync: transaction logs upload, the leader computes the
	// consensus truncation version (Figure 5) and writes the next
	// cluster_info_<seq>.json commit point.
	if err := db.SyncMetadata(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synced: truncation version %d, incarnation %s\n",
		db.TruncationVersion(), db.Internal().Incarnation())

	// A commit after the last sync: durable as data (files uploaded
	// before commit) but its *metadata* has not reached shared storage.
	mustExec(s, `INSERT INTO events VALUES (4, 'lost-on-catastrophe')`)

	// Clean shutdown uploads the remaining logs, so nothing is lost.
	if err := db.Shutdown(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("cluster shut down")

	// Revive a brand-new cluster from the shared storage only.
	db2, err := eon.Revive(eon.Config{Shared: shared})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("revived: new incarnation %s\n", db2.Internal().Incarnation())
	res, err := db2.NewSession().Query(`SELECT COUNT(*) FROM events`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("events after clean shutdown + revive: %s (all 4 present)\n", res.Rows()[0][0])

	// The revived cluster is fully writable.
	mustExec(db2.NewSession(), `INSERT INTO events VALUES (5, 'post-revive')`)
	res, _ = db2.NewSession().Query(`SELECT COUNT(*) FROM events`)
	fmt.Printf("events after new insert: %s\n", res.Rows()[0][0])
}

func mustExec(s *eon.Session, sql string) {
	if _, err := s.Execute(sql); err != nil {
		log.Fatal(err)
	}
}
