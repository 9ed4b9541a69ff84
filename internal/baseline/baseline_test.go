package baseline

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/fluid"

	pathload "repro"
)

// fluidProber replays the analytical fluid model, including the exit
// rate compression a dispersion method actually measures.
type fluidProber struct {
	path fluid.Path
	fail bool
	// specs and idles record what the estimator sent.
	specs []pathload.StreamSpec
	idles []time.Duration
}

func (f *fluidProber) RTT() time.Duration { return 10 * time.Millisecond }

func (f *fluidProber) Idle(d time.Duration) error {
	f.idles = append(f.idles, d)
	return nil
}

func (f *fluidProber) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	f.specs = append(f.specs, spec)
	if f.fail {
		return pathload.StreamResult{}, errors.New("transport down")
	}
	// Fluid arrival times: the train exits at rate ExitRate, so the
	// i-th packet's OWD grows by (1/exit − 1/entry)·L·8 per packet.
	entry := spec.EffectiveRate()
	exit := fluid.ExitRate(entry, f.path)
	perPacket := float64(spec.L) * 8 * (1/exit - 1/entry)
	res := pathload.StreamResult{Sent: spec.K}
	for i := 0; i < spec.K; i++ {
		res.OWDs = append(res.OWDs, pathload.OWDSample{
			Seq: i,
			OWD: time.Duration(float64(i) * perPacket * 1e9),
		})
	}
	return res, nil
}

// TestCprobeMeasuresADRNotAvailBw is the §II claim in its purest form:
// on a fluid path the dispersion estimate equals the ADR, which sits
// strictly between the avail-bw and the capacity.
func TestCprobeMeasuresADRNotAvailBw(t *testing.T) {
	path := fluid.Path{{C: 10e6, A: 4e6}}
	p := &fluidProber{path: path}
	res, err := Cprobe(p)
	if err != nil {
		t.Fatal(err)
	}
	adr := fluid.ExitRate(120e6, path)
	if rel := math.Abs(res.Estimate-adr) / adr; rel > 0.02 {
		t.Fatalf("cprobe %.2f Mb/s, fluid ADR %.2f (rel err %.3f)", res.Estimate/1e6, adr/1e6, rel)
	}
	if res.Estimate <= 4e6 {
		t.Fatalf("cprobe %.2f Mb/s does not exceed the avail-bw: the §II overestimation is missing", res.Estimate/1e6)
	}
	if res.Estimate > 10e6 {
		t.Fatalf("cprobe %.2f Mb/s exceeds the capacity", res.Estimate/1e6)
	}
}

// TestCprobeOnIdlePath: with no cross traffic the ADR is the capacity.
func TestCprobeOnIdlePath(t *testing.T) {
	path := fluid.Path{{C: 10e6, A: 10e6}}
	p := &fluidProber{path: path}
	res, err := Cprobe(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-10e6)/10e6 > 0.02 {
		t.Fatalf("idle-path cprobe %.2f Mb/s, want ≈ capacity 10", res.Estimate/1e6)
	}
}

// TestCprobeDefaults checks the fixed train recipe as it reaches the
// prober: eight back-to-back 120 Mb/s trains of sixty MTU packets,
// 500 ms apart.
func TestCprobeDefaults(t *testing.T) {
	p := &fluidProber{path: fluid.Path{{C: 10e6, A: 4e6}}}
	if _, err := Cprobe(p); err != nil {
		t.Fatal(err)
	}
	if len(p.specs) != 8 || len(p.idles) != 8 {
		t.Fatalf("%d trains and %d gaps, want 8 of each", len(p.specs), len(p.idles))
	}
	for i, spec := range p.specs {
		if spec.K != 60 || spec.L != 1500 || spec.T != 100*time.Microsecond || spec.Index != i {
			t.Fatalf("train %d: %+v", i, spec)
		}
		if spec.Rate != 120e6 {
			t.Fatalf("train %d: rate %v, want back-to-back 120 Mb/s", i, spec.Rate)
		}
		if p.idles[i] != 500*time.Millisecond {
			t.Fatalf("gap %d: %v, want 500ms", i, p.idles[i])
		}
	}
}

// TestCprobeTransportError propagates failures.
func TestCprobeTransportError(t *testing.T) {
	p := &fluidProber{path: fluid.Path{{C: 10e6, A: 4e6}}, fail: true}
	if _, err := Cprobe(p); err == nil {
		t.Fatal("transport failure swallowed")
	}
}

// lossyProber returns single-packet trains, which carry no dispersion
// information.
type lossyProber struct{ fluidProber }

func (l *lossyProber) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	res, err := l.fluidProber.SendStream(spec)
	if err != nil {
		return res, err
	}
	res.OWDs = res.OWDs[:1]
	return res, nil
}

// TestCprobeAllTrainsUnusable: a measurement with no usable trains is
// an error, not a zero estimate.
func TestCprobeAllTrainsUnusable(t *testing.T) {
	p := &lossyProber{fluidProber{path: fluid.Path{{C: 10e6, A: 4e6}}}}
	if _, err := Cprobe(p); err == nil {
		t.Fatal("estimate produced from unusable trains")
	}
}
