// Package systable is the virtual-table layer behind the v_monitor
// schema: SQL-queryable system tables materialized on scan from live
// monitoring state (the Vertica pattern — operators diagnose the system
// with the system). A Def pairs a qualified table name and schema with a
// Fill function that takes a consistent snapshot cut of whatever state
// it exposes; the Registry hands the planner synthesized catalog.Table
// handles (OID 0 — virtual tables live outside the transactional
// catalog) so ordinary SELECTs plan against them, and hands the executor
// the Fill to materialize one batch on the initiator at scan time.
//
// Fill functions must follow the scan discipline: capture a snapshot
// (registry Snapshot, DC ring Snapshot, catalog Snapshot), never hold a
// hot-path lock while building rows, and tolerate concurrent mutation
// of the underlying state.
package systable

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"eon/internal/catalog"
	"eon/internal/obs"
	"eon/internal/types"
)

// SchemaName is the virtual schema every table registers under.
const SchemaName = "v_monitor"

// Def is one virtual table.
type Def struct {
	// Name is the qualified table name, e.g. "v_monitor.metrics".
	Name string
	// Columns is the table schema (unqualified column names).
	Columns types.Schema
	// Fill materializes the table's current contents as one batch over
	// Columns. Called on the initiator once per scan.
	Fill func() (*types.Batch, error)
}

// Registry maps virtual table names to defs and synthesizes the catalog
// handles the planner resolves against. Registration happens at
// database setup; lookups are read-mostly.
type Registry struct {
	mu     sync.RWMutex
	defs   map[string]*Def
	tables map[string]*catalog.Table
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{defs: map[string]*Def{}, tables: map[string]*catalog.Table{}}
}

// Register adds a virtual table. The name must be qualified with the
// v_monitor schema and unused.
func (r *Registry) Register(d *Def) error {
	if r == nil {
		return fmt.Errorf("systable: nil registry")
	}
	name := strings.ToLower(d.Name)
	if !strings.HasPrefix(name, SchemaName+".") {
		return fmt.Errorf("systable: table %q outside the %s schema", d.Name, SchemaName)
	}
	if len(d.Columns) == 0 || d.Fill == nil {
		return fmt.Errorf("systable: table %q needs columns and a fill function", d.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.defs[name]; ok {
		return fmt.Errorf("systable: table %q already registered", d.Name)
	}
	r.defs[name] = d
	// OID 0: virtual tables are not catalog objects; the planner treats
	// the synthesized handle as metadata only.
	r.tables[name] = &catalog.Table{Name: name, Columns: d.Columns}
	return nil
}

// LookupVirtual resolves a table name to its synthesized catalog handle.
// It implements the planner's virtual-table resolver hook.
func (r *Registry) LookupVirtual(name string) (*catalog.Table, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tables[strings.ToLower(name)]
	return t, ok
}

// Def returns the registered def for a table name.
func (r *Registry) Def(name string) (*Def, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.defs[strings.ToLower(name)]
	return d, ok
}

// Fill materializes the named table. The returned batch's columns are
// in Def.Columns order.
func (r *Registry) Fill(name string) (*types.Batch, error) {
	d, ok := r.Def(name)
	if !ok {
		return nil, fmt.Errorf("systable: unknown virtual table %q", name)
	}
	b, err := d.Fill()
	if err != nil {
		return nil, fmt.Errorf("systable: fill %s: %w", d.Name, err)
	}
	if b == nil {
		b = types.NewBatch(d.Columns, 0)
	}
	if len(b.Cols) != len(d.Columns) {
		return nil, fmt.Errorf("systable: %s fill produced %d columns, schema has %d", d.Name, len(b.Cols), len(d.Columns))
	}
	return b, nil
}

// Names lists registered tables, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]string, 0, len(r.defs))
	for n := range r.defs {
		out = append(out, n)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// DCTableName maps a Data Collector ring name to its system table name.
func DCTableName(ring string) string { return SchemaName + ".dc_" + ring }

// DCDef builds the Def for one Data Collector ring: schema derived from
// the ring's column definition (time, node, then the used string and
// integer fields), filled from a ring snapshot cut.
func DCDef(r *obs.DCRing) *Def {
	def := r.Def()
	cols := types.Schema{
		{Name: "time", Type: types.Timestamp},
		{Name: "node", Type: types.Varchar},
	}
	if def.ACol != "" {
		cols = append(cols, types.Column{Name: def.ACol, Type: types.Varchar})
	}
	if def.BCol != "" {
		cols = append(cols, types.Column{Name: def.BCol, Type: types.Varchar})
	}
	for _, v := range def.VCols {
		cols = append(cols, types.Column{Name: v, Type: types.Int64})
	}
	return &Def{
		Name:    DCTableName(def.Name),
		Columns: cols,
		Fill: func() (*types.Batch, error) {
			evs := r.Snapshot()
			b := types.NewBatch(cols, len(evs))
			for _, e := range evs {
				row := types.Row{types.NewTimestamp(e.TimeNS / 1000), types.NewString(e.Node)}
				if def.ACol != "" {
					row = append(row, types.NewString(e.A))
				}
				if def.BCol != "" {
					row = append(row, types.NewString(e.B))
				}
				vs := [4]int64{e.V1, e.V2, e.V3, e.V4}
				for i := range def.VCols {
					row = append(row, types.NewInt(vs[i]))
				}
				b.AppendRow(row)
			}
			return b, nil
		},
	}
}

// RegisterDC registers the dc_* table of every ring in the collector.
func RegisterDC(reg *Registry, dc *obs.DataCollector) error {
	for _, ring := range dc.Rings() {
		if err := reg.Register(DCDef(ring)); err != nil {
			return err
		}
	}
	return nil
}

// MetricsDef builds v_monitor.metrics over a snapshot source: one row
// per counter, gauge and histogram, with the percentile summary columns
// populated for histograms.
func MetricsDef(snapshot func() obs.Snapshot) *Def {
	cols := types.Schema{
		{Name: "name", Type: types.Varchar},
		{Name: "kind", Type: types.Varchar},
		{Name: "value", Type: types.Int64},
		{Name: "count", Type: types.Int64},
		{Name: "sum", Type: types.Int64},
		{Name: "max", Type: types.Int64},
		{Name: "p50", Type: types.Int64},
		{Name: "p95", Type: types.Int64},
		{Name: "p99", Type: types.Int64},
	}
	return &Def{
		Name:    SchemaName + ".metrics",
		Columns: cols,
		Fill: func() (*types.Batch, error) {
			s := snapshot()
			b := types.NewBatch(cols, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
			null := types.NullDatum(types.Int64)
			appendRow := func(name, kind string, value types.Datum, h *obs.HistStats) {
				row := types.Row{types.NewString(name), types.NewString(kind), value}
				if h == nil {
					row = append(row, null, null, null, null, null, null)
				} else {
					row = append(row,
						types.NewInt(h.Count), types.NewInt(h.Sum), types.NewInt(h.Max),
						types.NewInt(h.P50), types.NewInt(h.P95), types.NewInt(h.P99))
				}
				b.AppendRow(row)
			}
			for _, name := range sortedKeys(s.Counters) {
				appendRow(name, "counter", types.NewInt(s.Counters[name]), nil)
			}
			for _, name := range sortedKeys(s.Gauges) {
				appendRow(name, "gauge", types.NewInt(s.Gauges[name]), nil)
			}
			for _, name := range sortedKeys(s.Histograms) {
				h := s.Histograms[name]
				appendRow(name, "histogram", null, &h)
			}
			return b, nil
		},
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ProfileRows flattens a span-profile tree into rows for
// v_monitor.query_profiles: one row per span, with the materialized
// path ("query/scan:lineitem/fragment:n1/fetch") identifying its place
// in the tree. The span's counter attributes (a join's build_rows,
// probe_rows, build_second — 1 when the second input built — and the
// build_est and probe_est it chose by, groupjoin — 1 when the aggregate
// above it ran fused with it (exec.GroupJoin), whose rows_in and
// rows_out still count the join's and the aggregate's rows — an
// aggregate's groups, a
// fragment's cache hits, ...) render as one "k=v k=v" string in key
// order.
func ProfileRows(b *types.Batch, origin string, seq int64, p *obs.Profile) {
	var walk func(path string, depth int64, n *obs.Profile)
	walk = func(path string, depth int64, n *obs.Profile) {
		var attrs []string
		for _, k := range sortedKeys(n.Attrs) {
			attrs = append(attrs, fmt.Sprintf("%s=%d", k, n.Attrs[k]))
		}
		b.AppendRow(types.Row{
			types.NewString(origin),
			types.NewInt(seq),
			types.NewString(path),
			types.NewString(n.Name),
			types.NewInt(depth),
			types.NewInt(int64(n.Wall)),
			types.NewInt(n.RowsIn),
			types.NewInt(n.RowsOut),
			types.NewInt(n.Bytes),
			types.NewString(strings.Join(attrs, " ")),
		})
		for _, c := range n.Children {
			walk(path+"/"+c.Name, depth+1, c)
		}
	}
	if p != nil {
		walk(p.Name, 0, p)
	}
}

// ProfileSchema is the v_monitor.query_profiles schema ProfileRows
// appends over.
func ProfileSchema() types.Schema {
	return types.Schema{
		{Name: "origin", Type: types.Varchar},
		{Name: "query_seq", Type: types.Int64},
		{Name: "path", Type: types.Varchar},
		{Name: "operator", Type: types.Varchar},
		{Name: "depth", Type: types.Int64},
		{Name: "wall_ns", Type: types.Int64},
		{Name: "rows_in", Type: types.Int64},
		{Name: "rows_out", Type: types.Int64},
		{Name: "bytes", Type: types.Int64},
		{Name: "attrs", Type: types.Varchar},
	}
}
