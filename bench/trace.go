package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"eon/internal/obs"
)

// stageTimes is what one op's wall time folds into. The program's
// profile carries durations but no timestamps, and its streaming
// operator spans all cover the whole query, so the fold is deliberately
// conservative:
//
//   - parse, bind, plan and admit are serial leaves under the root and
//     are taken as they are;
//   - fetch, decode and filter run once per fragment in parallel, so
//     only the fragment with the most leaf time (the one the result had
//     to wait for) is counted;
//   - gather is what its span covers beyond the operator tree beside it;
//   - objstore is the wall time with at least one of the op's
//     shared-storage calls in flight, measured by the decorator, and is
//     carved out of fetch, which it runs under;
//   - unattributed is the op's wall time minus all of the above:
//     operator, exchange and scheduling time no leaf span accounts for.
//
// By construction the parts sum to the op's wall time.
type stageTimes [nStages]time.Duration

type stage int

const (
	stParse stage = iota
	stBind
	stPlan
	stAdmit
	stFetch
	stDecode
	stFilter
	stGather
	stObjstore
	stUnattributed
	nStages
)

// stageNames are the parts as they are reported (trace.<name>_ms).
var stageNames = [nStages]string{"parse", "bind", "plan", "admit", "fetch", "decode", "filter", "gather", "objstore", "unattributed"}

// foldProfile reads the program's existing spans as they are.
func foldProfile(p *obs.Profile) stageTimes {
	var st stageTimes
	if p == nil {
		return st
	}
	var operators, gather time.Duration
	for _, c := range p.Children {
		switch c.Name {
		case "parse":
			st[stParse] += c.Wall
		case "bind":
			st[stBind] += c.Wall
		case "plan":
			st[stPlan] += c.Wall
		case "admit":
			st[stAdmit] += c.Wall
		case "gather":
			gather = c.Wall
		default:
			if c.Wall > operators {
				operators = c.Wall
			}
		}
	}
	if gather > operators {
		st[stGather] = gather - operators
	}
	var best time.Duration
	p.Visit(func(n *obs.Profile) {
		if !strings.HasPrefix(n.Name, "fragment:") {
			return
		}
		var f, d, fi time.Duration
		for _, c := range n.Children {
			switch c.Name {
			case "fetch":
				f += c.Wall
			case "decode":
				d += c.Wall
			case "filter":
				fi += c.Wall
			}
		}
		if f+d+fi > best {
			best = f + d + fi
			st[stFetch], st[stDecode], st[stFilter] = f, d, fi
		}
	})
	return st
}

// attributed returns the measured loop's op records and shared-storage
// calls with each call's owning record (see attachObjstore).
func (e *env) attributed(p *phase) ([]opRecord, []objCall, []int) {
	var records []opRecord
	for _, cs := range p.clients {
		records = append(records, cs.records...)
	}
	calls := e.traced.snapshot()[p.before.objN:p.after.objN]
	return records, calls, attachObjstore(records, calls)
}

// attachObjstore finishes each record's fold with the decorator's
// calls and returns, per call, the index of the record that owns it
// (-1 for none). A call belongs to the op whose interval contains it;
// when two clients' ops both do, to the one that started last. Both
// slices are left sorted by start time.
func attachObjstore(records []opRecord, calls []objCall) []int {
	sort.Slice(records, func(i, j int) bool { return records[i].start.Before(records[j].start) })
	sort.Slice(calls, func(i, j int) bool { return calls[i].Start.Before(calls[j].Start) })
	owner := make([]int, len(calls))
	busy := make([]time.Duration, len(records))
	upto := make([]time.Time, len(records))
	for ci, c := range calls {
		owner[ci] = -1
		i := sort.Search(len(records), func(i int) bool { return records[i].start.After(c.Start) }) - 1
		// With n closed-loop clients at most n records are open at once,
		// so the owner is among the last few that started before the call.
		for back := 0; i >= 0 && back < 8; i, back = i-1, back+1 {
			if !records[i].end.Before(c.End) {
				owner[ci] = i
				break
			}
		}
		if i := owner[ci]; i >= 0 { // calls arrive sorted by start: merge intervals
			s := c.Start
			if s.Before(upto[i]) {
				s = upto[i]
			}
			if c.End.After(s) {
				busy[i] += c.End.Sub(s)
				upto[i] = c.End
			}
		}
	}
	for i := range records {
		f := &records[i].fold
		wall := records[i].end.Sub(records[i].start)
		f[stObjstore] = busy[i]
		f[stFetch] = max(0, f[stFetch]-busy[i])
		f[stUnattributed] = 0
		var covered time.Duration
		for _, d := range f {
			covered += d
		}
		// Leaves that ran in parallel can add up to more than the wall
		// time they overlap; scale them down rather than go negative.
		if covered > wall {
			k := float64(wall) / float64(covered)
			for j := range f {
				f[j] = time.Duration(float64(f[j]) * k)
			}
			covered = wall
		}
		f[stUnattributed] = wall - covered
	}
	return owner
}

// traceSpan is one span of the trace file.
type traceSpan struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Name    string             `json:"name"`
	Client  int                `json:"client"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Bytes   int64              `json:"bytes,omitempty"`
	SelfMS  map[string]float64 `json:"self_ms,omitempty"`
	Profile *obs.Profile       `json:"profile,omitempty"`
}

// writeTrace writes the spans of a traced pass: one root span per op
// recorded by the harness, the decorator's objstore.* calls parented by
// time containment, and the program's own profile under the first
// profilesKept ops of each client. records and calls must have been
// through attachObjstore.
func writeTrace(dir string, w *workloadSpec, records []opRecord, calls []objCall, owner []int) (string, error) {
	if len(records) == 0 {
		return "", fmt.Errorf("trace: no ops recorded")
	}
	t0 := records[0].start
	spans := make([]traceSpan, 0, len(records)+len(calls))
	for i, r := range records {
		name := "op." + opKindNames[r.kind]
		if r.tmpl >= 0 {
			name += ":" + w.templates[r.tmpl].name
		}
		self := map[string]float64{}
		for j, d := range r.fold {
			self[stageNames[j]] = ms(d)
		}
		spans = append(spans, traceSpan{
			ID: i + 1, Name: name, Client: r.client,
			StartNS: r.start.Sub(t0).Nanoseconds(), EndNS: r.end.Sub(t0).Nanoseconds(),
			SelfMS: self, Profile: r.profile,
		})
	}
	for ci, c := range calls {
		s := traceSpan{
			ID: len(spans) + 1, Name: "objstore." + c.Kind, Bytes: c.Bytes,
			StartNS: c.Start.Sub(t0).Nanoseconds(), EndNS: c.End.Sub(t0).Nanoseconds(),
		}
		if owner[ci] >= 0 {
			s.Parent = owner[ci] + 1
			s.Client = records[owner[ci]].client
		}
		spans = append(spans, s)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+w.name+".json")
	data, err := json.Marshal(map[string]any{"workload": w.name, "spans": spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
