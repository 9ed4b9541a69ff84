package experiments

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/mesh"
	"repro/internal/netsim"
	"repro/internal/simprobe"

	pathload "repro"
)

// ContentionFleetSizes are the fleet sizes swept per backbone shape.
var ContentionFleetSizes = []int{2, 4}

// contentionShapes are the backbone shapes swept, in report order:
// three shared-link patterns plus the disjoint control fleet.
func contentionShapes() []string { return mesh.ShapeNames() }

// A ContentionPath is one path's solo-versus-co-probing comparison.
type ContentionPath struct {
	Path string
	// True is the analytic avail-bw A = min C_l·(1−u_l) over the route,
	// without probe load.
	True float64
	// SharedLinks counts the route's links that some sibling fleet path
	// also traverses; 0 marks a disjoint path.
	SharedLinks int
	// SoloLo/SoloHi is the range measured probing alone on a fresh,
	// identically seeded mesh; CoLo/CoHi the range with the whole fleet
	// co-probing.
	SoloLo, SoloHi float64
	CoLo, CoHi     float64
	// CoMRTG is the tight link's counter-measured avail-bw over the co
	// pass, fleet probe load included — the §VIII intrusiveness view of
	// the same run.
	CoMRTG float64
}

// SoloMid and CoMid are the range midpoints.
func (p ContentionPath) SoloMid() float64 { return (p.SoloLo + p.SoloHi) / 2 }
func (p ContentionPath) CoMid() float64   { return (p.CoLo + p.CoHi) / 2 }

// Shift is the fleet self-interference on this path: how far co-probing
// moved the midpoint estimate from the solo baseline (negative =
// under-reports under contention, the tool-interference direction).
func (p ContentionPath) Shift() float64 { return p.CoMid() - p.SoloMid() }

// SoloErr and CoErr are each range's distance to the true avail-bw
// (zero when the range brackets it).
func (p ContentionPath) SoloErr() float64 { return rangeErr(p.SoloLo, p.SoloHi, p.True) }
func (p ContentionPath) CoErr() float64   { return rangeErr(p.CoLo, p.CoHi, p.True) }

// rangeErr returns how far a lies outside [lo, hi].
func rangeErr(lo, hi, a float64) float64 {
	switch {
	case a < lo:
		return lo - a
	case a > hi:
		return a - hi
	default:
		return 0
	}
}

// A ContentionCase is one (shape, fleet size) cell of the sweep.
type ContentionCase struct {
	Shape string
	Fleet int
	Paths []ContentionPath
}

// A ContentionResult is the outcome of the whole sweep.
type ContentionResult struct {
	Cases []ContentionCase
	// K and N are the per-measurement stream parameters used.
	K, N int
}

// OverlappingPaths and DisjointPaths split the sweep's path results by
// whether the path shares links with fleet siblings.
func (r ContentionResult) OverlappingPaths() []ContentionPath { return r.split(true) }
func (r ContentionResult) DisjointPaths() []ContentionPath    { return r.split(false) }

func (r ContentionResult) split(shared bool) []ContentionPath {
	var out []ContentionPath
	for _, c := range r.Cases {
		for _, p := range c.Paths {
			if (p.SharedLinks > 0) == shared {
				out = append(out, p)
			}
		}
	}
	return out
}

// contentionConfig scales the per-measurement stream parameters: the
// paper's K and N at Scale 1, floored so trend classification stays
// meaningful at test scales.
func contentionConfig(o Options) pathload.Config {
	k := int(float64(pathload.DefaultPacketsPerStream)*o.Scale + 0.5)
	if k < 40 {
		k = 40
	}
	n := int(float64(pathload.DefaultStreamsPerFleet)*o.Scale + 0.5)
	if n < 4 {
		n = 4
	}
	return pathload.Config{PacketsPerStream: k, StreamsPerFleet: n}
}

// Contention measures fleet self-interference on shared backbones: for
// every backbone shape and fleet size, each path is measured twice —
// once probing alone on a fresh mesh, once with the whole fleet
// co-probing the same (identically seeded, so identical cross-traffic)
// mesh through the deterministic sequencer, probe streams genuinely
// overlapping on the shared links. The solo/co difference is therefore
// attributable to co-probing alone. Disjoint fleets are the control:
// their sequenced timelines replay the solo runs exactly, so their
// shift is identically zero, while overlapping paths show the
// tool-interference effect — co-running SLoPS streams raise each
// other's OWD trends and push estimates down.
//
// Identical Options give byte-identical results at any GOMAXPROCS:
// each case's passes run on forRuns' pool, solo passes own their
// simulators, and the co pass is co-scheduled by simprobe.Sequencer.
func Contention(opt Options) ContentionResult {
	opt = opt.withDefaults()
	cfg := contentionConfig(opt)

	res := ContentionResult{K: cfg.PacketsPerStream, N: cfg.StreamsPerFleet}
	for _, shape := range contentionShapes() {
		for _, fleet := range ContentionFleetSizes {
			res.Cases = append(res.Cases, runContentionCase(shape, fleet, opt.Seed, cfg))
		}
	}
	return res
}

// runContentionCase runs one (shape, fleet) cell: fleet solo passes and
// one co pass, fleet+1 runs of forRuns' pool — every pass owns an
// isolated mesh, so the pool cannot perturb results.
func runContentionCase(shape string, fleet int, seed int64, cfg pathload.Config) ContentionCase {
	spec, err := mesh.Shape(shape, fleet, seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: contention: %v", err))
	}

	solo := make([]pathload.Result, fleet)
	co := make([]pathload.Result, fleet)
	mrtg := make([]float64, fleet)
	// Static per-path ground truth (name, analytic A, route links),
	// published by the co pass; safe to read once forRuns returns.
	var paths []*mesh.Path
	// Runs 0..fleet-1 are the solo passes, run fleet the co pass.
	forRuns(fleet+1, func(i int) {
		m := spec.MustBuild()
		m.Warmup(warmup)
		if i < fleet {
			p := simprobe.New(m.Sim, m.Paths()[i].Route, reverseDelay)
			r, err := pathload.Run(p, cfg)
			if err != nil {
				panic(fmt.Sprintf("experiments: contention: %s solo %s: %v", shape, m.Paths()[i].Name, err))
			}
			solo[i] = r
			return
		}
		paths = m.Paths()
		_, probers := m.SequencedProbers(reverseDelay)
		before := make([]netsim.LinkCounters, fleet)
		for i, p := range m.Paths() {
			before[i] = p.TightLink().Counters()
		}
		start := m.Sim.Now()

		// Not forRuns: the Sequencer needs every session live, so a bounded pool would deadlock.
		var fleetWG sync.WaitGroup
		for i, p := range probers {
			fleetWG.Add(1)
			go func() {
				defer fleetWG.Done()
				defer p.Retire()
				r, err := pathload.Run(p, cfg)
				if err != nil {
					panic(fmt.Sprintf("experiments: contention: %s co path %d: %v", shape, i, err))
				}
				co[i] = r
			}()
		}
		fleetWG.Wait()

		window := m.Sim.Now() - start
		for i, p := range m.Paths() {
			link := p.TightLink()
			util := netsim.Utilization(before[i], link.Counters(), window)
			mrtg[i] = float64(link.Capacity()) * (1 - util)
		}
	})

	// Links shared between routes, from the spec (deterministic).
	linkRoutes := map[string]int{}
	for _, r := range spec.Routes {
		for _, l := range r.Links {
			linkRoutes[l]++
		}
	}

	c := ContentionCase{Shape: shape, Fleet: fleet}
	for i, p := range paths {
		shared := 0
		for _, l := range p.LinkNames {
			if linkRoutes[l] > 1 {
				shared++
			}
		}
		c.Paths = append(c.Paths, ContentionPath{
			Path:        p.Name,
			True:        p.AvailBw(),
			SharedLinks: shared,
			SoloLo:      solo[i].Lo, SoloHi: solo[i].Hi,
			CoLo: co[i].Lo, CoHi: co[i].Hi,
			CoMRTG: mrtg[i],
		})
	}
	return c
}

// RenderContention formats the sweep as per-case tables plus a fleet
// summary. The output contains no wall-clock fields: identical Options
// render byte-identically.
func RenderContention(r ContentionResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Contention: fleet self-interference on shared backbones (solo vs co-probing)\n")
	fmt.Fprintf(&b, "stream params K=%d N=%d; ranges in Mb/s; shift = co mid − solo mid\n", r.K, r.N)
	for _, c := range r.Cases {
		fmt.Fprintf(&b, "\nshape=%s fleet=%d\n", c.Shape, c.Fleet)
		fmt.Fprintf(&b, "  %-9s %6s %7s  %15s %6s  %15s %6s  %7s %8s\n",
			"path", "A", "shared", "solo [lo,hi]", "err", "co [lo,hi]", "err", "shift", "co-mrtg")
		for _, p := range c.Paths {
			fmt.Fprintf(&b, "  %-9s %6.2f %7d  [%6.2f,%6.2f] %6.2f  [%6.2f,%6.2f] %6.2f  %+7.2f %8.2f\n",
				p.Path, p.True/1e6, p.SharedLinks,
				p.SoloLo/1e6, p.SoloHi/1e6, p.SoloErr()/1e6,
				p.CoLo/1e6, p.CoHi/1e6, p.CoErr()/1e6,
				p.Shift()/1e6, p.CoMRTG/1e6)
		}
	}

	over := r.OverlappingPaths()
	dis := r.DisjointPaths()
	fmt.Fprintf(&b, "\nsummary:\n")
	if len(over) > 0 {
		var sum, maxAbs float64
		moved := 0
		for _, p := range over {
			sum += p.Shift()
			if a := math.Abs(p.Shift()); a > maxAbs {
				maxAbs = a
			}
			if math.Abs(p.Shift()) > 0 {
				moved++
			}
		}
		fmt.Fprintf(&b, "  overlapping paths: %d; mean shift %+.2f Mb/s; max |shift| %.2f; shifted: %d/%d\n",
			len(over), sum/float64(len(over))/1e6, maxAbs/1e6, moved, len(over))
	}
	if len(dis) > 0 {
		var maxAbs float64
		for _, p := range dis {
			if a := math.Abs(p.Shift()); a > maxAbs {
				maxAbs = a
			}
		}
		fmt.Fprintf(&b, "  disjoint paths: %d; max |shift| %.2f Mb/s (control: sequenced co pass replays solo exactly)\n",
			len(dis), maxAbs/1e6)
	}
	return b.String()
}
