// Command eonctl is an interactive SQL shell over an in-process cluster —
// the vsql of this reproduction. Statements are read line by line
// (terminated by ';'); results print as aligned tables. Backslash
// commands drive cluster operations:
//
//	\kill <node>       simulate a node failure
//	\recover <node>    recover a failed node
//	\wipe <node>       simulate instance loss (process and depot both gone)
//	\addnode <node>    grow the cluster
//	\removenode <node> drain and remove a node
//	\spare <node>      provision a warm spare (PASSIVE everywhere, depot pre-warmed)
//	\promote <node> [subcluster]  promote a spare into a subcluster
//	\spec <size> [spares]  declare the desired cluster shape for the reconciler
//	\reconcile         tick the reconciler until it converges (or blocks)
//	\cluster           show reconciler status and node membership
//	\tuplemover        run one mergeout pass
//	\sync              sync metadata to shared storage
//	\gc                run the file garbage collector
//	\nodes             list nodes and subscriptions
//	\copytable a b     snapshot-copy table a to b (shared files)
//	\droppartition t k drop a table partition
//	\movepartition a b k  move a partition between tables
//	\refresh t         refresh flattened columns of t
//	\tpch <scale>      create and load the TPC-H-shaped dataset
//	\sys [table]       list the v_monitor system tables (or one table's columns)
//	\dc                list Data Collector rings (retained/emitted/dropped/bytes)
//	\stats [json]      dump the cluster metrics registry (text or JSON);
//	                   includes reconcile.* counters once a reconciler runs
//	                   and the per-subcluster subcluster.*.nodes gauges
//	\cache             show plan cache, result cache and admission queues
//	\exec              show the last query's executor stats (peak memory, spills)
//	\profile [json]    show the last query's execution profile
//	\slow [json]       show the slow-query log
//	\trace on|off      toggle per-query span tracing (default on)
//	\q                 quit
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"eon"
	"eon/internal/workload"
)

func main() {
	mode := flag.String("mode", "eon", "cluster mode: eon or enterprise")
	nodes := flag.Int("nodes", 3, "node count")
	shards := flag.Int("shards", 3, "segment shard count (eon)")
	slow := flag.Duration("slow", time.Second, "slow-query log threshold (0 disables)")
	budget := flag.Int64("budget", 0, "per-query per-node memory budget in bytes; operators spill to local disk past it (0 = unbounded)")
	flag.Parse()

	cfg := eon.Config{ShardCount: *shards, SlowQueryThreshold: *slow, QueryMemoryBudget: *budget}
	if *mode == "enterprise" {
		cfg.Mode = eon.ModeEnterprise
	} else {
		cfg.Mode = eon.ModeEon
	}
	for i := 1; i <= *nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, eon.NodeSpec{Name: fmt.Sprintf("node%d", i)})
	}
	db, err := eon.Create(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eonctl:", err)
		os.Exit(1)
	}
	fmt.Printf("eonctl: %d-node %s cluster ready. Terminate statements with ';', \\q to quit.\n", *nodes, cfg.Mode)

	session := db.NewSession()
	session.Trace = true // makes \profile available after every query
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("eon=> ")
		} else {
			fmt.Print("eon-> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if trimmed == "\\q" {
				return
			}
			if err := backslash(db, session, trimmed); err != nil {
				fmt.Println("error:", err)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			stmt := buf.String()
			buf.Reset()
			run(session, stmt)
		}
		prompt()
	}
}

func run(session *eon.Session, stmt string) {
	res, err := session.Execute(stmt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if res == nil || res.Batch == nil || len(res.Columns) == 0 {
		fmt.Println("OK")
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(res.Columns, "\t"))
	for _, row := range res.Rows() {
		parts := make([]string, len(row))
		for i, d := range row {
			parts[i] = d.String()
		}
		fmt.Fprintln(w, strings.Join(parts, "\t"))
	}
	w.Flush()
	fmt.Printf("(%d rows)\n", res.NumRows())
}

// rec is the shell's reconciler, created on the first \spec.
var rec *eon.Reconciler

func printReconcileStatus(st eon.ReconcileStatus) {
	fmt.Printf("reconciler: %s (round %d, queue %d, p95 %v)\n", st.Code, st.Round, st.QueueDepth, st.P95)
	for _, r := range st.Reasons {
		fmt.Printf("  - %s\n", r)
	}
}

func backslash(db *eon.DB, session *eon.Session, cmd string) error {
	fields := strings.Fields(cmd)
	asJSON := len(fields) > 1 && fields[1] == "json"
	switch fields[0] {
	case "\\sys":
		reg := db.SystemTables()
		if len(fields) > 1 {
			name := fields[1]
			if !strings.Contains(name, ".") {
				name = "v_monitor." + name
			}
			d, ok := reg.Def(name)
			if !ok {
				return fmt.Errorf("unknown system table %s (try \\sys)", name)
			}
			w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
			fmt.Fprintln(w, "column\ttype")
			for _, c := range d.Columns {
				fmt.Fprintf(w, "%s\t%s\n", c.Name, c.Type)
			}
			return w.Flush()
		}
		for _, name := range reg.Names() {
			fmt.Println(" ", name)
		}
		fmt.Println("query them with ordinary SQL, e.g. SELECT m.name, m.value FROM v_monitor.metrics m WHERE m.kind = 'counter';")
		return nil
	case "\\dc":
		dc := db.DataCollector()
		if dc == nil {
			fmt.Println("data collector disabled (Config.DisableDataCollector)")
			return nil
		}
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "ring\tretained\temitted\tdropped\tbytes")
		for _, r := range dc.Rings() {
			st := r.Stats()
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", st.Name, st.Retained, st.Emitted, st.Dropped, st.Bytes)
		}
		return w.Flush()
	case "\\stats":
		snap := db.Metrics()
		if asJSON {
			fmt.Println(string(snap.JSON()))
		} else {
			fmt.Print(snap.Text())
		}
		return nil
	case "\\cache":
		for _, q := range []struct{ title, sql string }{
			{"v_monitor.plan_cache", "SELECT p.statement, p.assume_no_seg, p.catalog_version, p.params, p.hits, p.replans FROM v_monitor.plan_cache p;"},
			{"v_monitor.result_cache", "SELECT r.statement, r.args, r.rows, r.bytes, r.hits FROM v_monitor.result_cache r;"},
			{"v_monitor.admission_queue", "SELECT a.subcluster, a.running, a.queued, a.mem_bytes, a.concurrency_limit, a.mem_limit_bytes FROM v_monitor.admission_queue a;"},
		} {
			fmt.Println("--", q.title)
			run(session, q.sql)
		}
		return nil
	case "\\exec":
		st := session.LastExecStats()
		fmt.Printf("peak memory: %d bytes  spills: %d (%d bytes)\n",
			st.PeakMemBytes, st.SpillCount, st.SpillBytes)
		return nil
	case "\\profile":
		prof := session.LastProfile()
		if prof == nil {
			return fmt.Errorf("no profile recorded yet (run a query first)")
		}
		if asJSON {
			b, err := json.MarshalIndent(prof, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(b))
		} else {
			fmt.Print(prof.Text())
		}
		return nil
	case "\\slow":
		entries := db.SlowQueries()
		if len(entries) == 0 {
			fmt.Println("slow-query log is empty")
			return nil
		}
		if asJSON {
			b, err := json.MarshalIndent(entries, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(b))
			return nil
		}
		for _, e := range entries {
			status := "ok"
			if e.Err != "" {
				status = "error: " + e.Err
			}
			fmt.Printf("%s  %v  %s  %s\n", e.Start.Format(time.RFC3339), e.Wall, status, strings.TrimSpace(e.SQL))
		}
		return nil
	case "\\trace":
		if len(fields) < 2 || (fields[1] != "on" && fields[1] != "off") {
			return fmt.Errorf("usage: \\trace on|off")
		}
		session.Trace = fields[1] == "on"
		return nil
	case "\\kill":
		if len(fields) < 2 {
			return fmt.Errorf("usage: \\kill <node>")
		}
		return db.KillNode(fields[1])
	case "\\wipe":
		if len(fields) < 2 {
			return fmt.Errorf("usage: \\wipe <node>")
		}
		return db.WipeNode(fields[1])
	case "\\spare":
		if len(fields) < 2 {
			return fmt.Errorf("usage: \\spare <node>")
		}
		return db.AddSpare(eon.NodeSpec{Name: fields[1]})
	case "\\promote":
		if len(fields) < 2 {
			return fmt.Errorf("usage: \\promote <node> [subcluster]")
		}
		sub := ""
		if len(fields) > 2 {
			sub = fields[2]
		}
		return db.PromoteSpare(fields[1], sub)
	case "\\spec":
		if len(fields) < 2 {
			return fmt.Errorf("usage: \\spec <size> [spares]")
		}
		size, err := strconv.Atoi(fields[1])
		if err != nil || size < 1 {
			return fmt.Errorf("usage: \\spec <size> [spares]")
		}
		spares := 0
		if len(fields) > 2 {
			if spares, err = strconv.Atoi(fields[2]); err != nil || spares < 0 {
				return fmt.Errorf("usage: \\spec <size> [spares]")
			}
		}
		spec := eon.ClusterSpec{
			Subclusters: []eon.SubclusterSpec{{Name: "", Size: size}},
			Spares:      spares,
		}
		if rec == nil {
			rec = db.NewReconciler(eon.ReconcilerConfig{Spec: spec})
		} else {
			rec.SetSpec(spec)
		}
		fmt.Printf("spec: %d members, %d spares; run \\reconcile to converge\n", size, spares)
		return nil
	case "\\reconcile":
		if rec == nil {
			return fmt.Errorf("no spec declared yet (use \\spec <size> [spares])")
		}
		for round := 0; round < 64; round++ {
			st := rec.Tick(context.Background())
			for _, ar := range st.Actions {
				outcome := "ok"
				if ar.Err != "" {
					outcome = "error: " + ar.Err
				}
				fmt.Printf("  %s %s (%s) -> %s\n", ar.Action.Kind, ar.Action.Node, ar.Action.Reason, outcome)
			}
			if st.Code != eon.ReconcileProgressing {
				printReconcileStatus(st)
				return nil
			}
		}
		printReconcileStatus(rec.Status())
		return nil
	case "\\cluster":
		if rec != nil {
			printReconcileStatus(rec.Status())
		} else {
			fmt.Println("reconciler: no spec declared (use \\spec <size> [spares])")
		}
		return backslash(db, session, "\\nodes")
	case "\\recover":
		if len(fields) < 2 {
			return fmt.Errorf("usage: \\recover <node>")
		}
		return db.RecoverNode(fields[1])
	case "\\addnode":
		if len(fields) < 2 {
			return fmt.Errorf("usage: \\addnode <node>")
		}
		return db.AddNode(eon.NodeSpec{Name: fields[1]})
	case "\\removenode":
		if len(fields) < 2 {
			return fmt.Errorf("usage: \\removenode <node>")
		}
		return db.RemoveNode(fields[1])
	case "\\tuplemover":
		stats, err := db.RunTupleMover()
		if err != nil {
			return err
		}
		fmt.Printf("mergeout: %d jobs, %d containers merged, %d rows purged\n",
			stats.Jobs, stats.ContainersMerged, stats.RowsPurged)
		return nil
	case "\\sync":
		if err := db.SyncMetadata(); err != nil {
			return err
		}
		fmt.Printf("truncation version now %d\n", db.TruncationVersion())
		return nil
	case "\\gc":
		n, err := db.RunGC()
		if err != nil {
			return err
		}
		fmt.Printf("deleted %d files\n", n)
		return nil
	case "\\nodes":
		inner := db.Internal()
		for _, n := range inner.Nodes() {
			status := "UP"
			if !n.Up() {
				status = "DOWN"
			}
			subs := n.Catalog().Snapshot().Subscriptions(n.Name())
			var parts []string
			for _, s := range subs {
				parts = append(parts, fmt.Sprintf("%d:%s", s.ShardIndex, s.State))
			}
			fmt.Printf("  %-8s %-5s subscriptions: %s\n", n.Name(), status, strings.Join(parts, " "))
		}
		return nil
	case "\\copytable":
		if len(fields) < 3 {
			return fmt.Errorf("usage: \\copytable <src> <dst>")
		}
		return db.CopyTable(fields[1], fields[2])
	case "\\droppartition":
		if len(fields) < 3 {
			return fmt.Errorf("usage: \\droppartition <table> <key>")
		}
		n, err := db.DropPartition(fields[1], fields[2])
		if err != nil {
			return err
		}
		fmt.Printf("dropped %d containers\n", n)
		return nil
	case "\\movepartition":
		if len(fields) < 4 {
			return fmt.Errorf("usage: \\movepartition <src> <dst> <key>")
		}
		n, err := db.MovePartition(fields[1], fields[2], fields[3])
		if err != nil {
			return err
		}
		fmt.Printf("moved %d containers\n", n)
		return nil
	case "\\refresh":
		if len(fields) < 2 {
			return fmt.Errorf("usage: \\refresh <table>")
		}
		n, err := db.RefreshColumns(fields[1])
		if err != nil {
			return err
		}
		fmt.Printf("refreshed %d rows\n", n)
		return nil
	case "\\tpch":
		scale := 0.05
		if len(fields) > 1 {
			if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
				scale = v
			}
		}
		w := workload.DefaultTPCH(scale)
		err := w.Setup(func(sql string) error {
			_, err := db.Execute(sql)
			return err
		}, db.LoadRows)
		if err != nil {
			return err
		}
		fmt.Printf("TPC-H dataset loaded at scale %.2f\n", scale)
		return nil
	}
	return fmt.Errorf("unknown command %s", fields[0])
}
