package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"eon/internal/types"
	"eon/internal/workload"
)

// opKind classifies what one entry of an op list does. Queries and
// copies are client ops (they count in ops_s and are checked);
// mergeout, sync and gc are the maintenance calls the op list schedules
// explicitly, because nothing in the program runs them on a timer.
type opKind uint8

const (
	opQuery opKind = iota
	opCopy
	opMergeout
	opSync
	opGC
)

var opKindNames = [...]string{"query", "copy", "mergeout", "sync", "gc"}

// template is one op type: every op of a template issues the same SQL
// text (or the same COPY shape) and differs only in its bound values.
// Latency is summarised per template before it is combined, so a mix of
// short and long templates never puts a percentile in the gap between
// two of them.
type template struct {
	name string
	sql  string // empty for the copy template
}

type op struct {
	kind  opKind
	tmpl  int           // template index; -1 for maintenance
	args  []types.Datum // bound query parameters
	batch *types.Batch  // rows of a copy (into readingsTable)
	want  []types.Row   // reference answer of a query
}

const readingsTable = "readings"

// tiny is a 25-row replicated table every workload creates; the query
// floor replay counts it.
const (
	tinyTable = "tiny"
	tinyRows  = 25
	tinyCount = "SELECT COUNT(*) FROM tiny WHERE k >= ?"
)

var tinyDDL = []string{
	`CREATE TABLE tiny (k INTEGER)`,
	`CREATE PROJECTION tiny_rep AS SELECT * FROM tiny ORDER BY k UNSEGMENTED ALL NODES`,
}

func tinyBatch() *types.Batch {
	b := types.NewBatch(types.Schema{{Name: "k", Type: types.Int64}}, tinyRows)
	for i := 0; i < tinyRows; i++ {
		b.AppendRow(types.Row{types.NewInt(int64(i))})
	}
	return b
}

// workloadSpec fixes everything about a workload except its seed.
type workloadSpec struct {
	name             string // its why is in BENCHMARK.json
	nodes, shards, k int
	resultCacheBytes int64
	tpchScale        float64 // 0: no TPC-H tables
	coldReads        bool    // clear every depot (untimed) before each query
	clients          int
	templates        []template // the copy template is always last
	cadence          string     // the flush policy, echoed in the output
	// unitsPerSecond freezes the op count: a run of S seconds executes
	// round(unitsPerSecond*S) units (rounds, op blocks or cycles). It was
	// calibrated once on the 2-core reference box so the closed loop
	// lasts about S seconds; it is not adjusted at run time.
	unitsPerSecond float64
	quickUnits     int
	warmUnits      int
	gen            func(g *opGen, units int) [][]op
}

func (w *workloadSpec) copyTmpl() int { return len(w.templates) - 1 }

func (w *workloadSpec) units(seconds int, quick bool) int {
	if quick {
		return w.quickUnits
	}
	return int(math.Max(1, math.Round(w.unitsPerSecond*float64(seconds))))
}

var copyTemplate = template{name: "copy"}

// The twenty Figure 10 queries. The text is owned by the benchmark so
// that its inputs cannot drift with internal/workload; it differs from
// workload.TPCHQueries only by tie-breaking sort keys on the six
// ORDER BY ... LIMIT queries, without which equal sort keys would let a
// 1-node and a 4-node plan legitimately return different rows.
var tpchTemplates = []template{
	{"Q1", `SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
		SUM(l_extendedprice) AS sum_base, SUM(l_extendedprice * (1 - l_discount)) AS sum_disc,
		AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, COUNT(*) AS n
		FROM lineitem WHERE l_shipdate <= DATE '1998-06-01'
		GROUP BY l_returnflag, l_linestatus ORDER BY 1, 2`},
	{"Q2", `SELECT p_brand, MIN(p_retailprice) AS lo, MAX(p_retailprice) AS hi, COUNT(*) AS n
		FROM part WHERE p_type LIKE '%STEEL%' GROUP BY p_brand ORDER BY p_brand`},
	{"Q3", `SELECT o.o_orderkey, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue, o.o_orderdate
		FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
		WHERE o.o_orderdate < DATE '1995-03-15'
		GROUP BY o.o_orderkey, o.o_orderdate ORDER BY revenue DESC, 1 LIMIT 10`},
	{"Q4", `SELECT o_orderpriority, COUNT(*) AS order_count
		FROM orders WHERE o_orderdate >= DATE '1993-07-01' AND o_orderdate < DATE '1993-10-01'
		GROUP BY o_orderpriority ORDER BY o_orderpriority`},
	{"Q5", `SELECT c.c_mktsegment, SUM(o.o_totalprice) AS revenue
		FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
		WHERE o.o_orderdate >= DATE '1994-01-01' AND o.o_orderdate < DATE '1995-01-01'
		GROUP BY c.c_mktsegment ORDER BY revenue DESC`},
	{"Q6", `SELECT SUM(l_extendedprice * l_discount) AS revenue
		FROM lineitem WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
		AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`},
	{"Q7", `SELECT s.s_name, COUNT(*) AS shipments
		FROM lineitem l JOIN supplier s ON l.l_suppkey = s.s_suppkey
		WHERE l.l_shipdate >= DATE '1995-01-01'
		GROUP BY s.s_name ORDER BY shipments DESC, 1 LIMIT 10`},
	{"Q8", `SELECT n.n_name, SUM(c.c_acctbal) AS total_bal, COUNT(*) AS customers
		FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey
		GROUP BY n.n_name ORDER BY n.n_name`},
	{"Q9", `SELECT p.p_brand, SUM(l.l_extendedprice * (1 - l.l_discount)) AS profit
		FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
		GROUP BY p.p_brand ORDER BY profit DESC`},
	{"Q10", `SELECT c.c_custkey, c.c_name, SUM(o.o_totalprice) AS spent
		FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
		WHERE o.o_orderdate >= DATE '1993-10-01'
		GROUP BY c.c_custkey, c.c_name ORDER BY spent DESC, 1 LIMIT 20`},
	{"Q11", `SELECT l_returnflag, COUNT(DISTINCT l_orderkey) AS orders
		FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`},
	{"Q12", `SELECT o.o_orderpriority, COUNT(*) AS n
		FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
		WHERE l.l_shipdate > o.o_orderdate AND l.l_shipdate < DATE '1997-01-01'
		GROUP BY o.o_orderpriority ORDER BY 1`},
	{"Q13", `SELECT o_orderstatus, COUNT(*) AS n, AVG(o_totalprice) AS avg_price
		FROM orders GROUP BY o_orderstatus ORDER BY o_orderstatus`},
	{"Q14", `SELECT SUM(CASE WHEN p.p_type LIKE '%BRASS%' THEN l.l_extendedprice * (1 - l.l_discount) ELSE 0 END) AS promo,
		SUM(l.l_extendedprice * (1 - l.l_discount)) AS total
		FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
		WHERE l.l_shipdate >= DATE '1995-09-01' AND l.l_shipdate < DATE '1995-12-01'`},
	{"Q15", `SELECT l_suppkey, SUM(l_extendedprice * (1 - l_discount)) AS total_revenue
		FROM lineitem WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1996-04-01'
		GROUP BY l_suppkey ORDER BY total_revenue DESC, 1 LIMIT 5`},
	{"Q16", `SELECT p_brand, p_type, COUNT(DISTINCT p_partkey) AS cnt
		FROM part WHERE p_brand <> 'Brand#45' GROUP BY p_brand, p_type ORDER BY cnt DESC, 1, 2 LIMIT 20`},
	{"Q17", `SELECT AVG(l_quantity) AS avg_qty, SUM(l_extendedprice) AS total_price, COUNT(*) AS n
		FROM lineitem WHERE l_quantity < 10`},
	{"Q18", `SELECT o.o_orderkey, o.o_totalprice, SUM(l.l_quantity) AS total_qty
		FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
		GROUP BY o.o_orderkey, o.o_totalprice HAVING total_qty > 150
		ORDER BY o.o_totalprice DESC, 1 LIMIT 10`},
	{"Q19", `SELECT SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue
		FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
		WHERE p.p_brand IN ('Brand#11', 'Brand#22') AND l.l_quantity BETWEEN 5 AND 35`},
	{"Q20", `SELECT n.n_name, s.s_name, s.s_acctbal
		FROM supplier s JOIN nation n ON s.s_nationkey = n.n_nationkey
		WHERE s.s_acctbal > 0 ORDER BY s.s_acctbal DESC, 2 LIMIT 15`},
}

// The four parameterised dashboard statements of dash_serving.
var dashTemplates = []template{
	{"cust_orders", `SELECT COUNT(*) AS n, SUM(o_totalprice) AS spent FROM orders WHERE o_custkey = ?`},
	{"order_lines", `SELECT l_linenumber, l_quantity, l_extendedprice FROM lineitem WHERE l_orderkey = ? ORDER BY l_linenumber`},
	{"prio_window", `SELECT o_orderpriority, COUNT(*) AS n, SUM(o_totalprice) AS revenue FROM orders
		WHERE o_orderdate >= ? AND o_orderdate < ? GROUP BY o_orderpriority ORDER BY o_orderpriority`},
	{"segment_window", `SELECT c.c_mktsegment, COUNT(*) AS orders, SUM(o.o_totalprice) AS revenue
		FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
		WHERE o.o_orderdate >= ? AND o.o_orderdate < ? GROUP BY c.c_mktsegment ORDER BY c.c_mktsegment`},
}

// The two reads copy_mergeout issues over the table it is loading.
var copyReadTemplates = []template{
	{"by_metric", `SELECT metric, COUNT(*) AS n, AVG(value) AS mean FROM readings GROUP BY metric ORDER BY metric`},
	{"device_range", `SELECT COUNT(*) AS n, SUM(value) AS total FROM readings WHERE device_id >= 100 AND device_id < 150`},
}

const (
	dashHotPerTemplate  = 8   // 32 hot (template, parameter) pairs
	dashColdPerTemplate = 256 // 1024 cold pairs
	dashBlock           = 10  // ops per unit: 8 hot + 2 cold, shuffled
	dashCopyEvery       = 25  // client 0 loads one heartbeat batch per 25 blocks
	heartbeatRows       = 200
	copyRows            = 2000
	copyLoadsPerCycle   = 4
	copyReadsPerCycle   = 3 // of each read template
	mergeoutEveryCycles = 4
	syncEveryCycles     = 16
)

func workloads() []*workloadSpec {
	tpch := append(append([]template{}, tpchTemplates...), copyTemplate)
	tpchGen := func(g *opGen, units int) [][]op {
		var ops []op
		for r := 0; r < units; r++ {
			ops = append(ops, g.copyOp(heartbeatRows))
			for t := range tpchTemplates {
				ops = append(ops, op{kind: opQuery, tmpl: t})
			}
		}
		return [][]op{ops}
	}
	return []*workloadSpec{
		{
			name:  "tpch_warm",
			nodes: 4, shards: 4, k: 2, tpchScale: 5, clients: 1,
			templates: tpch, gen: tpchGen,
			cadence:        "one 200-row heartbeat COPY per round of Q1..Q20; no mergeout; sync+gc once after the loop",
			unitsPerSecond: 2.9, quickUnits: 1, warmUnits: 2,
		},
		{
			name:  "tpch_cold",
			nodes: 4, shards: 4, k: 2, tpchScale: 5, clients: 1, coldReads: true,
			templates: tpch, gen: tpchGen,
			cadence:        "one 200-row heartbeat COPY per round of Q1..Q20; depots cleared before every query; sync+gc once after the loop",
			unitsPerSecond: 1.9, quickUnits: 1, warmUnits: 1,
		},
		{
			name:  "dash_serving",
			nodes: 3, shards: 3, k: 3, tpchScale: 2, clients: 2, resultCacheBytes: 64 << 10,
			templates:      append(append([]template{}, dashTemplates...), copyTemplate),
			gen:            (*opGen).dashOps,
			cadence:        "client 0 loads one 200-row heartbeat COPY per 250 ops; no mergeout; sync+gc once after the loop",
			unitsPerSecond: 120, quickUnits: 20, warmUnits: 60,
		},
		{
			name:  "copy_mergeout",
			nodes: 3, shards: 3, k: 2, clients: 1,
			templates:      append(append([]template{}, copyReadTemplates...), copyTemplate),
			gen:            (*opGen).copyOps,
			cadence:        "cycle = 4 COPY x 2000 rows + 3 x 2 reads; mergeout every 4th cycle; sync+gc every 16th cycle and once after the loop",
			unitsPerSecond: 4, quickUnits: 4, warmUnits: 4,
		},
	}
}

// dataset is the seed-derived input shared by every set-up of a run.
type dataset struct {
	tpch      workload.TPCH
	tpchNames []string // load order
	tpchData  map[string]*types.Batch
}

func newDataset(w *workloadSpec, seed int64, quick bool) *dataset {
	d := &dataset{}
	if w.tpchScale == 0 {
		return d
	}
	scale := w.tpchScale
	if quick {
		scale /= 25
	}
	d.tpch = workload.DefaultTPCH(scale)
	d.tpch.Seed = seed
	d.tpchData = d.tpch.Tables()
	for name := range d.tpchData {
		d.tpchNames = append(d.tpchNames, name)
	}
	sort.Strings(d.tpchNames)
	return d
}

// opGen builds op lists; all randomness comes from the run's seed.
type opGen struct {
	w    *workloadSpec
	data *dataset
	rng  *rand.Rand
	iot  workload.IoT
	seq  int64 // next copy batch sequence number

	// running reference state of readingsTable for copy_mergeout's reads
	metricN   map[string]int64
	metricSum map[string]float64
	rangeN    int64
	rangeSum  float64
}

func newOpGen(w *workloadSpec, data *dataset, seed int64) *opGen {
	return &opGen{
		w: w, data: data, rng: rand.New(rand.NewSource(seed)),
		iot:     workload.IoT{Seed: seed},
		metricN: map[string]int64{}, metricSum: map[string]float64{},
	}
}

func (g *opGen) copyOp(rows int) op {
	g.iot.RowsPerLoad = rows
	b := g.iot.Batch(g.seq)
	g.seq++
	return op{kind: opCopy, tmpl: g.w.copyTmpl(), batch: b}
}

// plan generates the warm-up and measured op lists, one pair per client.
// Both come from one generator pass so copy_mergeout's reference answers
// follow the loads across the boundary.
func (g *opGen) plan(measuredUnits int) (warm, measured [][]op) {
	return g.w.gen(g, g.w.warmUnits), g.w.gen(g, measuredUnits)
}

func dateDays(y int, m time.Month, d int) int64 {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC).Unix() / 86400
}

// dashPairs returns template t's parameter space: the first
// dashHotPerTemplate entries are hot, the rest cold. Values are a
// seed-shuffled sample of the template's domain, so every pair is
// distinct.
func (g *opGen) dashPairs(t int) [][]types.Datum {
	n := dashHotPerTemplate + dashColdPerTemplate
	start, end := dateDays(1992, 1, 1), dateDays(1998, 8, 2)
	var domain int
	switch t {
	case 0:
		domain = g.data.tpch.Customers
	case 1:
		domain = g.data.tpch.Orders
	default:
		domain = int(end - start - 90)
	}
	perm := g.rng.Perm(domain)
	out := make([][]types.Datum, n)
	for i := range out {
		v := int64(perm[i%domain])
		switch t {
		case 0, 1:
			out[i] = []types.Datum{types.NewInt(v + 1)}
		case 2:
			out[i] = []types.Datum{types.NewDate(start + v), types.NewDate(start + v + 30)}
		default:
			out[i] = []types.Datum{types.NewDate(start + v), types.NewDate(start + v + 90)}
		}
	}
	return out
}

// dashOps builds each client's list from blocks of 8 hot + 2 cold ops.
// Hot ops walk a shuffled cycle over the 32 hot pairs; cold ops walk a
// shuffled cycle over the client's own half of the 1024 cold pairs.
// With an LRU result cache smaller than that half, hot ops always hit
// and cold ops always miss, so hit counts repeat exactly even though
// the two clients interleave freely.
func (g *opGen) dashOps(units int) [][]op {
	type pair struct {
		tmpl int
		args []types.Datum
	}
	if g.w.clients > dashColdPerTemplate {
		panic("dash_serving: more clients than cold pairs per template")
	}
	var hot []pair
	cold := make([][]pair, g.w.clients)
	for t := range dashTemplates {
		for i, args := range g.dashPairs(t) {
			if i < dashHotPerTemplate {
				hot = append(hot, pair{t, args})
			} else {
				c := i % g.w.clients
				cold[c] = append(cold[c], pair{t, args})
			}
		}
	}
	lists := make([][]op, g.w.clients)
	for c := range lists {
		hotCycle := append([]pair{}, hot...)
		g.rng.Shuffle(len(hotCycle), func(i, j int) { hotCycle[i], hotCycle[j] = hotCycle[j], hotCycle[i] })
		g.rng.Shuffle(len(cold[c]), func(i, j int) { cold[c][i], cold[c][j] = cold[c][j], cold[c][i] })
		var h, k int
		for u := 0; u < units; u++ {
			if c == 0 && u%dashCopyEvery == 0 {
				lists[c] = append(lists[c], g.copyOp(heartbeatRows))
			}
			block := make([]op, 0, dashBlock)
			for i := 0; i < dashBlock; i++ {
				var p pair
				if i < dashBlock*8/10 {
					p = hotCycle[h%len(hotCycle)]
					h++
				} else {
					p = cold[c][k%len(cold[c])]
					k++
				}
				block = append(block, op{kind: opQuery, tmpl: p.tmpl, args: p.args})
			}
			g.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			lists[c] = append(lists[c], block...)
		}
	}
	return lists
}

// copyOps builds load/read/maintenance cycles and, as it goes, the
// reference answer of every read from the rows loaded so far. The
// reference is plain arithmetic over the generated batches, independent
// of any engine.
func (g *opGen) copyOps(units int) [][]op {
	var ops []op
	for c := 1; c <= units; c++ {
		for i := 0; i < copyLoadsPerCycle; i++ {
			o := g.copyOp(copyRows)
			g.absorb(o.batch)
			ops = append(ops, o)
		}
		for i := 0; i < copyReadsPerCycle; i++ {
			ops = append(ops,
				op{kind: opQuery, tmpl: 0, want: g.byMetricAnswer()},
				op{kind: opQuery, tmpl: 1, want: g.deviceRangeAnswer()})
		}
		if c%mergeoutEveryCycles == 0 {
			ops = append(ops, op{kind: opMergeout, tmpl: -1})
		}
		if c%syncEveryCycles == 0 {
			ops = append(ops, op{kind: opSync, tmpl: -1}, op{kind: opGC, tmpl: -1})
		}
	}
	return [][]op{ops}
}

func (g *opGen) absorb(b *types.Batch) {
	dev, met, val := b.Cols[0].Ints, b.Cols[2].Strs, b.Cols[3].Floats
	for i := range dev {
		g.metricN[met[i]]++
		g.metricSum[met[i]] += val[i]
		if dev[i] >= 100 && dev[i] < 150 {
			g.rangeN++
			g.rangeSum += val[i]
		}
	}
}

func (g *opGen) byMetricAnswer() []types.Row {
	var rows []types.Row
	for m, n := range g.metricN {
		rows = append(rows, types.Row{types.NewString(m), types.NewInt(n), types.NewFloat(g.metricSum[m] / float64(n))})
	}
	return rows
}

func (g *opGen) deviceRangeAnswer() []types.Row {
	return []types.Row{{types.NewInt(g.rangeN), types.NewFloat(g.rangeSum)}}
}

// oplistSHA hashes everything that determines what a run executes: op
// kinds, templates, bound values, copy sizes and first rows.
func oplistSHA(lists ...[][]op) string {
	h := sha256.New()
	for _, clients := range lists {
		for c, ops := range clients {
			for _, o := range ops {
				fmt.Fprintf(h, "%d|%s|%d|%v", c, opKindNames[o.kind], o.tmpl, o.args)
				if o.batch != nil {
					fmt.Fprintf(h, "|%d|%v", o.batch.NumRows(), o.batch.Row(0))
				}
				h.Write([]byte{'\n'})
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
