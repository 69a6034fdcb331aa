package site

import (
	"slices"
	"sort"
	"testing"

	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// popModel is the map-based popularity window the slice window replaced:
// per-file counts and per-file per-requester counts, cleared on drain and
// on crash.
type popModel struct {
	count map[storage.FileID]int
	byReq map[storage.FileID]map[topology.SiteID]int
}

func newPopModel() *popModel {
	return &popModel{count: map[storage.FileID]int{}, byReq: map[storage.FileID]map[topology.SiteID]int{}}
}

func (m *popModel) record(f storage.FileID, r topology.SiteID) {
	m.count[f]++
	if m.byReq[f] == nil {
		m.byReq[f] = map[topology.SiteID]int{}
	}
	m.byReq[f][r]++
}

func (m *popModel) clear() {
	clear(m.count)
	clear(m.byReq)
}

// drain returns the resident files, most popular first (ties by file id),
// each with its requesters in site order, and clears the window.
func (m *popModel) drain(resident func(storage.FileID) bool) []scheduler.PopularFile {
	var out []scheduler.PopularFile
	for f, n := range m.count {
		if !resident(f) {
			continue
		}
		var reqs []scheduler.RequesterCount
		for s, c := range m.byReq[f] {
			reqs = append(reqs, scheduler.RequesterCount{Site: s, Count: c})
		}
		sort.Slice(reqs, func(i, j int) bool { return reqs[i].Site < reqs[j].Site })
		out = append(out, scheduler.PopularFile{File: f, Count: n, ByRequester: reqs})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].File < out[j].File
	})
	m.clear()
	return out
}

// clonePops deep-copies a drain so later window activity cannot alter it.
func clonePops(ps []scheduler.PopularFile) []scheduler.PopularFile {
	out := make([]scheduler.PopularFile, len(ps))
	for i, p := range ps {
		out[i] = p
		out[i].ByRequester = slices.Clone(p.ByRequester)
	}
	return out
}

func equalPops(a, b []scheduler.PopularFile) bool {
	return slices.EqualFunc(a, b, func(x, y scheduler.PopularFile) bool {
		return x.File == y.File && x.Count == y.Count && slices.Equal(x.ByRequester, y.ByRequester)
	})
}

// TestPopularityWindowMatchesMapModel drives the site's popularity window
// and the map model through random record/drain/crash sequences: every
// drain returns the same files, counts, order and requester breakdown,
// PopularityOf agrees at every step, and a drain's output stays intact
// until the next drain however many accesses are recorded meanwhile.
func TestPopularityWindowMatchesMapModel(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		fx := newFixture(t, 2, 0, 10)
		const files = 12
		for f := storage.FileID(0); f < files; f++ {
			master := topology.SiteID(0) // even files resident here
			if f%2 == 1 {
				master = 2
			}
			fx.defineFile(t, f, 1e9, master)
		}
		resident := fx.site.Store().Peek
		model := newPopModel()
		src := rng.New(seed)
		var lent, lentCopy []scheduler.PopularFile
		for step := 0; step < 3000; step++ {
			switch r := src.Intn(100); {
			case r < 90:
				f := storage.FileID(src.Intn(files))
				req := topology.SiteID(src.Intn(4))
				fx.site.RecordRemoteRequest(f, req)
				model.record(f, req)
			case r < 98:
				if !equalPops(lent, lentCopy) {
					t.Fatalf("seed %d step %d: the previous drain changed before the next one", seed, step)
				}
				got, want := fx.site.DrainPopularity(), model.drain(resident)
				if !equalPops(got, want) {
					t.Fatalf("seed %d step %d: drain = %v, want %v", seed, step, got, want)
				}
				lent, lentCopy = got, clonePops(got)
			default:
				fx.site.Crash(true)
				fx.site.Recover()
				model.clear()
			}
			f := storage.FileID(src.Intn(files))
			if got, want := fx.site.PopularityOf(f), model.count[f]; got != want {
				t.Fatalf("seed %d step %d: PopularityOf(%d) = %d, want %d", seed, step, f, got, want)
			}
		}
	}
}
