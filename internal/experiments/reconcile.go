package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eon/internal/catalog"
	"eon/internal/core"
	"eon/internal/netsim"
	"eon/internal/objstore"
	"eon/internal/reconcile"
	"eon/internal/types"
)

// RecoveryOptions configures one chaos-recovery measurement.
type RecoveryOptions struct {
	// Spare provisions one warm spare before the failure; false measures
	// the cold-revive path (the spec declares no spare pool).
	Spare bool
	// Workers is the number of concurrent query streams (default 8).
	Workers int
	// Rows sizes the dataset (default 8000; every row carries padding so
	// re-warming a depot moves real bytes).
	Rows int
	// Window is the throughput bucket width (default 50ms).
	Window time.Duration
	// Warmup runs the workload before the kill (default 800ms).
	Warmup time.Duration
	// Post keeps measuring after the kill (default 3s).
	Post time.Duration
	// RecoverFrac is the fraction of baseline throughput that counts as
	// recovered, sustained for two consecutive windows (default 0.7).
	RecoverFrac float64
}

// RecoveryResult is one measured kill-and-recover run.
type RecoveryResult struct {
	// Mode is "spare" or "cold".
	Mode string
	// BaselineQPS is the pre-kill steady-state throughput.
	BaselineQPS float64
	// Recovered reports whether throughput returned to
	// RecoverFrac×baseline within the post-kill window.
	Recovered bool
	// TimeToRecovered is kill-to-recovered-throughput.
	TimeToRecovered time.Duration
	// TimeToRestored is kill-to-full-service: the first moment the
	// subcluster is back to size with every member's subscriptions
	// ACTIVE. This is where promotion (one catalog flip onto a
	// pre-warmed depot) and cold revive (catch-up, re-subscription,
	// peer warm over shared storage) genuinely differ.
	TimeToRestored time.Duration
	// TimeToConverged is kill-to-Converged as reported by the reconciler.
	TimeToConverged time.Duration
	// RepairTime is TimeToRestored without the wait for the reconciler's
	// next tick: it runs from the start of the first round that acted on
	// the kill. Two runs' TimeToRestored differ by up to one tick interval
	// for no other reason than where in the interval the kill fell.
	RepairTime time.Duration
	// RepairDepotBytes is the data the repair moved between the kill and
	// full service: the bytes the replacing member — the promoted spare,
	// or the revived node — took into its depot, by peer warm or from
	// shared storage. (Cluster-wide GET counts over that interval do not
	// separate the paths: in both, the survivors read what they lack of
	// the dead node's shards.)
	RepairDepotBytes int64
	// Queries/Failed/Wrong count worker outcomes; Wrong must be 0.
	Queries, Failed, Wrong int64
	// Promotions and Revives are the reconciler's repair actions.
	Promotions, Revives int64
}

func (o *RecoveryOptions) defaults() {
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Rows <= 0 {
		o.Rows = 8000
	}
	if o.Window <= 0 {
		o.Window = 50 * time.Millisecond
	}
	if o.Warmup <= 0 {
		o.Warmup = 800 * time.Millisecond
	}
	if o.Post <= 0 {
		o.Post = 3 * time.Second
	}
	if o.RecoverFrac <= 0 {
		o.RecoverFrac = 0.7
	}
}

// ChaosRecovery kills a node (instance loss: process and depot both
// gone) in the middle of a sustained query workload and measures how
// long throughput takes to return, with the reconciler driving the
// repair. With a warm spare the repair is a subscription flip onto a
// pre-warmed depot (§6.1); without one the reconciler revives the dead
// node, which must re-warm its depot from peers over shared storage —
// the difference is the experiment.
func ChaosRecovery(opts RecoveryOptions) (*RecoveryResult, error) {
	opts.defaults()
	mode := "cold"
	if opts.Spare {
		mode = "spare"
	}
	res := &RecoveryResult{Mode: mode}

	// Slower-than-default shared storage: depot rebuilds move real bytes
	// at S3-ish cost, so the warm-before vs warm-after asymmetry shows.
	sim := objstore.NewSim(objstore.NewMem(), objstore.SimConfig{
		GetLatency:     5 * time.Millisecond,
		PutLatency:     time.Millisecond,
		ListLatency:    500 * time.Microsecond,
		BytesPerSecond: 32 << 20,
		Seed:           7,
	})
	db, err := core.Create(core.Config{
		Mode:       core.ModeEon,
		Nodes:      nodeSpecs(3),
		ShardCount: 6,
		Shared:     sim,
		// A slower interconnect than the default experiment net: repair
		// traffic (metadata transfer, peer depot warm) moves real bytes,
		// which is exactly what a promoted spare pre-paid.
		Net: netsim.New(netsim.LinkCost{
			Latency:   200 * time.Microsecond,
			Bandwidth: 128 << 20,
		}),
		ExecSlots: 4,
		QueryCost: 2 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}

	wantSum, err := loadRecoverySales(db, opts.Rows)
	if err != nil {
		return nil, err
	}
	// Warm the member depots to steady state before measuring.
	for i := 0; i < 3; i++ {
		if _, err := countRows(db, "sales"); err != nil {
			return nil, err
		}
	}

	spec := reconcile.ClusterSpec{
		Subclusters: []reconcile.SubclusterSpec{{Name: "", Size: 3}},
	}
	if opts.Spare {
		spec.Spares = 1
	}
	rec := reconcile.New(db, reconcile.Config{Spec: spec})
	// Converge before the chaos starts (provisions the warm spare).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	preOK := false
	for i := 0; i < 80 && !preOK; i++ {
		preOK = rec.Tick(ctx).Code == reconcile.Converged
	}
	if !preOK {
		return nil, fmt.Errorf("experiments: reconciler did not converge pre-kill: %v", rec.Status().Reasons)
	}
	// The reconciler's loop (rec.Run at a 5 ms interval) runs here, to know
	// when each round started.
	var killed atomic.Bool
	var repairStart atomic.Int64 // UnixNano of the first round that acted after the kill
	ticksDone := make(chan struct{})
	go func() {
		defer close(ticksDone)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			start := time.Now()
			if st := rec.Tick(ctx); killed.Load() && len(st.Actions) > 0 {
				repairStart.CompareAndSwap(0, start.UnixNano())
			}
		}
	}()

	// Sustained workload; every completion is timestamped and verified.
	var mu sync.Mutex
	var completions []time.Time
	var failed, wrong atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, err := s.Query(`SELECT COUNT(*), SUM(sale_id) FROM sales`)
				if err != nil {
					failed.Add(1)
					continue
				}
				row := r.Batch.Row(0)
				if row[0].I != int64(opts.Rows) || row[1].I != wantSum {
					wrong.Add(1)
					continue
				}
				now := time.Now()
				mu.Lock()
				completions = append(completions, now)
				mu.Unlock()
			}
		}()
	}

	time.Sleep(opts.Warmup)
	// The member that will stand in for node2: the spare, or node2 itself
	// once revived (its depot is wiped with it).
	replacement, _ := db.Node("node2")
	for _, n := range db.Nodes() {
		if n.Spare() {
			replacement = n
		}
	}
	kill := time.Now()
	killRound := rec.Status().Round
	killVersion := replacement.Catalog().Version() // the workload commits nothing; only the repair will
	killed.Store(true)
	if err := db.WipeNode("node2"); err != nil {
		close(stop)
		wg.Wait()
		return nil, err
	}
	depotAtKill := replacement.Cache().Stats().BytesCached

	// Watch for full service: subcluster back to size with every up
	// member's subscriptions ACTIVE. A promoted spare gets there in one
	// catalog flip; a revived node only after catch-up and peer warm.
	var restoredAt atomic.Int64 // ns since kill, 0 = not yet
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			if serviceRestored(db, 3, killVersion) {
				restoredAt.Store(int64(time.Since(kill)))
				res.RepairDepotBytes = replacement.Cache().Stats().BytesCached - depotAtKill
				return
			}
		}
	}()

	// Watch for the post-kill reconvergence. A repair can complete within
	// a single round (the status never shows Progressing between polls),
	// so reconvergence is the first Converged status from a round that
	// provably started after the kill: a round in flight at kill time has
	// number killRound+1 at most, so require killRound+2.
	var convergedAt atomic.Int64 // ns since kill, 0 = not yet
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			st := rec.Status()
			if st.Code == reconcile.Converged && st.Round >= killRound+2 {
				convergedAt.Store(int64(time.Since(kill)))
				return
			}
		}
	}()

	time.Sleep(opts.Post)
	close(stop)
	wg.Wait()
	cancel()
	<-ticksDone

	res.Queries = int64(len(completions))
	res.Failed = failed.Load()
	res.Wrong = wrong.Load()
	res.TimeToRestored = time.Duration(restoredAt.Load())
	// The acting round is known only once its Tick has returned, which can
	// be after the service it restored was seen.
	if from := repairStart.Load(); from != 0 && res.TimeToRestored != 0 {
		res.RepairTime = kill.Add(res.TimeToRestored).Sub(time.Unix(0, from))
	}
	res.TimeToConverged = time.Duration(convergedAt.Load())
	res.Promotions = db.Registry().Counter("reconcile.promotions").Value()
	res.Revives = db.Registry().Counter("reconcile.revives").Value()

	countIn := func(from, to time.Time) int {
		n := 0
		for _, c := range completions {
			if !c.Before(from) && c.Before(to) {
				n++
			}
		}
		return n
	}
	// Baseline from the steady back half of the warmup.
	baseSpan := opts.Warmup / 2
	base := countIn(kill.Add(-baseSpan), kill)
	if base == 0 {
		return nil, fmt.Errorf("experiments: no completions in the baseline window")
	}
	res.BaselineQPS = float64(base) / baseSpan.Seconds()
	perWindow := res.BaselineQPS * opts.Window.Seconds()
	threshold := opts.RecoverFrac * perWindow

	// Recovered at the end of the first of two consecutive windows back
	// at threshold throughput.
	nWin := int(opts.Post / opts.Window)
	for i := 0; i+1 < nWin; i++ {
		w0 := countIn(kill.Add(time.Duration(i)*opts.Window), kill.Add(time.Duration(i+1)*opts.Window))
		w1 := countIn(kill.Add(time.Duration(i+1)*opts.Window), kill.Add(time.Duration(i+2)*opts.Window))
		if float64(w0) >= threshold && float64(w1) >= threshold {
			res.Recovered = true
			res.TimeToRecovered = time.Duration(i+1) * opts.Window
			break
		}
	}
	return res, nil
}

// serviceRestored reports whether `size` non-spare members are up with
// every subscription ACTIVE (none pending re-subscription) in a catalog
// newer than `after`, the version at the kill: a recovering node is up
// for an instant before the repair's first commit turns its stale ACTIVE
// subscriptions PENDING, and that instant is not restored service.
func serviceRestored(db *core.DB, size int, after uint64) bool {
	var snap *catalog.Snapshot
	members := 0
	for _, n := range db.Nodes() {
		if !n.Up() || n.Spare() {
			continue
		}
		members++
		if snap == nil {
			if snap = n.Catalog().Snapshot(); snap.Version() <= after {
				return false
			}
		}
		subs := snap.Subscriptions(n.Name())
		if len(subs) == 0 {
			return false
		}
		for _, s := range subs {
			if s.State != catalog.SubActive {
				return false
			}
		}
	}
	return members == size
}

// loadRecoverySales creates the sales table and loads rows with ~256
// bytes of padding each, returning the expected SUM(sale_id).
func loadRecoverySales(db *core.DB, rows int) (int64, error) {
	s := db.NewSession()
	if _, err := s.Execute(`CREATE TABLE sales (sale_id INTEGER, customer VARCHAR, price FLOAT, region VARCHAR)`); err != nil {
		return 0, err
	}
	if _, err := s.Execute(`CREATE PROJECTION sales_p1 AS SELECT * FROM sales ORDER BY sale_id SEGMENTED BY HASH(sale_id) ALL NODES`); err != nil {
		return 0, err
	}
	pad := make([]byte, 256)
	for i := range pad {
		pad[i] = 'x'
	}
	schema := types.Schema{
		{Name: "sale_id", Type: types.Int64},
		{Name: "customer", Type: types.Varchar},
		{Name: "price", Type: types.Float64},
		{Name: "region", Type: types.Varchar},
	}
	var wantSum int64
	const chunk = 1000
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		batch := types.NewBatch(schema, hi-lo)
		for i := lo; i < hi; i++ {
			batch.AppendRow(types.Row{
				types.NewInt(int64(i + 1)),
				types.NewString(string(pad)),
				types.NewFloat(1),
				types.NewString("east"),
			})
			wantSum += int64(i + 1)
		}
		if err := db.LoadRows("sales", batch); err != nil {
			return 0, err
		}
	}
	return wantSum, nil
}
