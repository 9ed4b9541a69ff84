// Package pathload measures the end-to-end available bandwidth of a
// network path using SLoPS — self-loading periodic streams (Jain &
// Dovrolis, "End-to-End Available Bandwidth: Measurement Methodology,
// Dynamics, and Relation With TCP Throughput", SIGCOMM 2002).
//
// The key idea: a periodic packet stream sent at rate R exhibits an
// increasing one-way-delay trend at the receiver exactly when R exceeds
// the path's available bandwidth A. Pathload performs an iterative
// binary search over stream rates, sending fleets of up to N streams per
// rate, classifying each stream's delay trend with two robust
// statistics (PCT and PDT), tracking a "grey region" where the
// avail-bw itself fluctuates around the probing rate, and converging to
// a range [Lo, Hi] that brackets the avail-bw process.
//
// The package is transport-agnostic: anything that can emit a periodic
// UDP-like stream and report per-packet one-way delays implements
// Prober. Two probers ship with this repository — internal/simprobe
// (deterministic discrete-event simulator, used by the paper-figure
// reproductions) and internal/udprobe (real networks; UDP data channel,
// TCP control channel).
package pathload

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// Defaults for Config fields, from the paper (§IV). The loss policy,
// the minimum packet size, the initialization stream length and the
// inter-stream gap are fixed: no field overrides them. The fleet
// fraction and the PDT thresholds are internal/core's, which applies
// them.
const (
	DefaultPacketsPerStream = 100                          // K
	DefaultStreamsPerFleet  = 12                           // N
	DefaultFleetFraction    = core.DefaultFleetFraction    // f
	DefaultPDTIncreasing    = core.DefaultPDTIncreasing    // PDT above ⇒ increasing
	DefaultPDTNonIncreasing = core.DefaultPDTNonIncreasing // PDT below ⇒ non-increasing
	DefaultResolution       = 1e6                          // ω, bits/s
	DefaultGreyResolution   = 1.5e6                        // χ, bits/s
	DefaultMinPeriod        = 100 * time.Microsecond       // T_min
	DefaultMinPacket        = 96                           // L_min, bytes (layer-2 header amortization)
	DefaultMTU              = 1500                         // bytes
	DefaultStreamAbortLoss  = 0.10                         // abort fleet if one stream loses > 10%
	DefaultModerateLoss     = 0.03                         // a stream with > 3% loss is "moderately lossy"
	DefaultInitProbePackets = 20                           // initialization (ADR) stream length
	DefaultInterStreamRTTs  = 9                            // Δ = max(RTT, 9·τ) keeps mean rate ≤ R/10
	DefaultMaxFleets        = 100                          // safety cap on the iterative search
)

// Config holds every tunable of the measurement. The zero value is
// usable: all zero fields assume the paper's defaults, and MaxRate
// defaults to the highest rate the stream parameters can generate
// (MTU·8/MinPeriod).
type Config struct {
	// PacketsPerStream is K, the number of packets in one periodic
	// stream. The stream duration τ = K·T sets the averaging timescale
	// of a single avail-bw sample (§VI-C).
	PacketsPerStream int
	// StreamsPerFleet is N, the most same-rate streams whose verdicts
	// are combined into one fleet decision (§IV): at most N, because a
	// fleet stops once the remaining streams cannot change its outcome
	// (nine agreeing streams of twelve at f = 0.7). N therefore bounds
	// the fleet duration, which sets the measurement timescale of the
	// reported variation range (§VI-D).
	StreamsPerFleet int
	// FleetFraction is f: at least f of the voting streams must agree
	// before a fleet is declared increasing or non-increasing; anything
	// in between is the grey region.
	FleetFraction float64

	// The PDT thresholds: PDT sees a stream's Γ = √K median groups as
	// increasing above PDTIncreasing, non-increasing below
	// PDTNonIncreasing, and ambiguous in between. PCT votes the same
	// way with internal/core's fixed bounds (0.60 and 0.45). A stream
	// is discarded when the votes conflict or are both ambiguous.
	// DisablePCT leaves PDT the only vote, and PDTNonIncreasing equal
	// to PDTIncreasing collapses its ambiguous band into the journal
	// paper's single threshold: together, the PDT-only detection of the
	// Fig. 9 sensitivity study.
	PDTIncreasing, PDTNonIncreasing float64
	DisablePCT                      bool

	// Resolution (ω) and GreyResolution (χ) are the termination
	// criteria in bits/s.
	Resolution, GreyResolution float64
	// MaxRate caps the binary search in bits/s, which runs from 0 and
	// starts at the midpoint of [0, MaxRate] (§IV). MaxRate 0 selects
	// the prober's generation limit MTU·8/MinPeriod; the init probe may
	// tighten it further.
	MaxRate float64

	// MinPeriod is T_min, the smallest packet interspacing the sender
	// can sustain; together with MTU it caps the probing rate. Probe
	// packets never shrink below DefaultMinPacket (L_min), so that
	// layer-2 headers do not distort the stream rate.
	MinPeriod time.Duration
	// MTU caps the probe packet wire size to avoid fragmentation.
	MTU int

	// MaxFleets caps the number of fleets before the search gives up
	// and reports its current bracket.
	MaxFleets int

	// DisableInitProbe skips the initialization stream. By default a
	// single short high-rate stream measures the path's asymptotic
	// dispersion rate (ADR); since A ≤ ADR ≤ C, the search's MaxRate is
	// tightened to slightly above the ADR (the paper's footnote 3 /
	// tool-paper initialization), which shortens convergence and keeps
	// early fleets from flooding slow paths.
	DisableInitProbe bool
}

// ADRMargin is the safety factor applied to the measured asymptotic
// dispersion rate when tightening MaxRate: ADR ≥ A in the fluid model,
// but a finite noisy train can underestimate it.
const ADRMargin = 1.25

// withDefaults returns cfg with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.PacketsPerStream == 0 {
		c.PacketsPerStream = DefaultPacketsPerStream
	}
	if c.StreamsPerFleet == 0 {
		c.StreamsPerFleet = DefaultStreamsPerFleet
	}
	if c.FleetFraction == 0 {
		c.FleetFraction = DefaultFleetFraction
	}
	if c.PDTIncreasing == 0 {
		c.PDTIncreasing = DefaultPDTIncreasing
	}
	if c.PDTNonIncreasing == 0 {
		c.PDTNonIncreasing = DefaultPDTNonIncreasing
	}
	if c.Resolution == 0 {
		c.Resolution = DefaultResolution
	}
	if c.GreyResolution == 0 {
		c.GreyResolution = DefaultGreyResolution
	}
	if c.MinPeriod == 0 {
		c.MinPeriod = DefaultMinPeriod
	}
	if c.MTU == 0 {
		c.MTU = DefaultMTU
	}
	if c.MaxFleets == 0 {
		c.MaxFleets = DefaultMaxFleets
	}
	if max := c.GenerationLimit(); c.MaxRate == 0 || c.MaxRate > max {
		c.MaxRate = max
	}
	return c
}

// Slack returns the bracketing tolerance ω + χ: the search terminates
// once its range is within the two resolutions, so a correct estimate
// may sit that far from the avail-bw. Zero fields read as their
// defaults, exactly as Run reads them.
func (c Config) Slack() float64 {
	c = c.withDefaults()
	return c.Resolution + c.GreyResolution
}

func (c Config) validate() error {
	if c.PacketsPerStream < 4 {
		return fmt.Errorf("pathload: PacketsPerStream %d too small to detect a trend", c.PacketsPerStream)
	}
	if c.StreamsPerFleet < 1 {
		return fmt.Errorf("pathload: StreamsPerFleet must be positive, got %d", c.StreamsPerFleet)
	}
	if !(c.FleetFraction >= 0 && c.FleetFraction <= 1) { // NaN too
		return fmt.Errorf("pathload: FleetFraction %v outside [0,1]", c.FleetFraction)
	}
	if DefaultMinPacket > c.MTU {
		return fmt.Errorf("pathload: MTU %d below the %d-byte minimum packet", c.MTU, DefaultMinPacket)
	}
	if c.MinPeriod <= 0 {
		return fmt.Errorf("pathload: MinPeriod must be positive, got %v", c.MinPeriod)
	}
	if !(c.MaxRate > 0) { // NaN too; defaulting capped +Inf
		return fmt.Errorf("pathload: MaxRate %v not positive", c.MaxRate)
	}
	if c.PDTIncreasing*0+c.PDTNonIncreasing*0+c.Resolution*0+c.GreyResolution*0 != 0 { // x·0 is NaN for NaN and ±Inf
		return fmt.Errorf("pathload: a PDT threshold or resolution is not finite in %+v", c)
	}
	return nil
}

// GenerationLimit returns the maximum stream rate the configured packet
// size and period allow: MTU·8/MinPeriod. It is the largest avail-bw
// the tool can measure (§IV).
func (c Config) GenerationLimit() float64 {
	mtu := c.MTU
	if mtu == 0 {
		mtu = DefaultMTU
	}
	period := c.MinPeriod
	if period == 0 {
		period = DefaultMinPeriod
	}
	return float64(mtu) * 8 / period.Seconds()
}

// StreamParams computes the packet size L (bytes) and interspacing T
// for a stream of the given rate (§IV "Stream Parameters"): T starts at
// MinPeriod and L = R·T/8; if L would fall below DefaultMinPacket, L is
// pinned there and T stretched; if L would exceed the MTU, L is pinned
// at the MTU and T stretched, capping the achievable rate.
func (c Config) StreamParams(rate float64) (l int, t time.Duration) {
	cfg := c.withDefaults()
	if rate <= 0 {
		return DefaultMinPacket, cfg.MinPeriod
	}
	t = cfg.MinPeriod
	l = int(rate * t.Seconds() / 8)
	if l < DefaultMinPacket {
		l = DefaultMinPacket
	}
	if l > cfg.MTU {
		l = cfg.MTU
	}
	t = time.Duration(float64(l) * 8 / rate * float64(time.Second))
	if t < cfg.MinPeriod {
		t = cfg.MinPeriod
	}
	return l, t
}
