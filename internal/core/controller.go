package core

import "fmt"

// ControllerConfig parameterizes the iterative rate-adjustment
// algorithm (§III-B refined by §IV).
type ControllerConfig struct {
	// MaxRate caps the search, in bits/s; it must be positive. It is
	// the highest rate the prober can generate (ℓ_max·8/T_min for
	// pathload) and therefore the highest avail-bw the tool can report.
	// The search runs over [0, MaxRate] and its first fleet probes the
	// midpoint.
	MaxRate float64
	// Resolution is ω, the user-requested estimation resolution in
	// bits/s: without a grey region the algorithm stops once
	// Rmax − Rmin ≤ ω.
	Resolution float64
	// GreyResolution is χ: with a grey region the algorithm stops once
	// both avail-bw bounds are within χ of the corresponding
	// grey-region bounds.
	GreyResolution float64
}

func (c ControllerConfig) validate() error {
	if c.MaxRate <= 0 {
		return fmt.Errorf("core: controller MaxRate must be positive, got %v", c.MaxRate)
	}
	if c.Resolution <= 0 {
		return fmt.Errorf("core: controller Resolution must be positive, got %v", c.Resolution)
	}
	if c.GreyResolution <= 0 {
		return fmt.Errorf("core: controller GreyResolution must be positive, got %v", c.GreyResolution)
	}
	return nil
}

// Result is the final avail-bw estimate of a controller run.
type Result struct {
	Lo, Hi float64 // reported avail-bw range [Rmin, Rmax], bits/s
	// GreySet reports whether a grey region was detected; GreyLo and
	// GreyHi are its bounds when set.
	GreySet        bool
	GreyLo, GreyHi float64
	// HitMax is true when the avail-bw appears to be at or above
	// MaxRate (every fleet reported R < A); the true avail-bw may
	// exceed Hi. HitMin is the symmetric flag at the floor, 0: every
	// fleet reported R > A.
	HitMax, HitMin bool
	Fleets         int // number of fleet verdicts consumed
}

// A Controller runs the SLoPS binary search over fleet rates. Create
// one with NewController, then alternate Rate (the rate to probe at)
// and Record (the fleet verdict at that rate) until Done.
type Controller struct {
	cfg ControllerConfig

	rmin, rmax float64
	greySet    bool
	gmin, gmax float64

	rate   float64
	fleets int
	done   bool
}

// NewController returns a controller ready to propose its first fleet
// rate. It returns an error if the configuration is invalid.
func NewController(cfg ControllerConfig) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg, rmax: cfg.MaxRate, rate: cfg.MaxRate / 2}, nil
}

// Rate returns the rate (bits/s) at which the next fleet should probe.
func (c *Controller) Rate() float64 { return c.rate }

// Done reports whether the search has terminated.
func (c *Controller) Done() bool { return c.done }

// Bounds returns the current avail-bw bracket [Rmin, Rmax].
func (c *Controller) Bounds() (lo, hi float64) { return c.rmin, c.rmax }

// Grey returns the current grey-region bracket; set is false while no
// grey fleet has been observed.
func (c *Controller) Grey() (lo, hi float64, set bool) { return c.gmin, c.gmax, c.greySet }

// Record consumes the verdict of the fleet probed at the current rate
// and advances the search. Calling Record after Done is a no-op.
func (c *Controller) Record(v FleetVerdict) {
	if c.done {
		return
	}
	c.fleets++
	r := c.rate
	switch v {
	case VerdictAbove, VerdictAborted:
		// R > A; aborted fleets mean losses, which the paper treats as
		// "rate too high: decrease".
		if r < c.rmax {
			c.rmax = r
		}
		c.clampGrey()
	case VerdictBelow:
		if r > c.rmin {
			c.rmin = r
		}
		c.clampGrey()
	case VerdictGrey:
		if !c.greySet {
			c.greySet = true
			c.gmin, c.gmax = r, r
		} else if r > c.gmax {
			c.gmax = r
		} else if r < c.gmin {
			c.gmin = r
		}
	default:
		panic(fmt.Sprintf("core: unknown fleet verdict %v", v))
	}
	c.advance()
}

// clampGrey keeps the grey region inside the avail-bw bracket,
// discarding it if the bracket update contradicted it entirely.
func (c *Controller) clampGrey() {
	if !c.greySet {
		return
	}
	if c.gmax > c.rmax {
		c.gmax = c.rmax
	}
	if c.gmin < c.rmin {
		c.gmin = c.rmin
	}
	if c.gmin > c.gmax {
		c.greySet = false
	}
}

// advance selects the next fleet rate or terminates the search.
func (c *Controller) advance() {
	if c.rmax-c.rmin <= c.cfg.Resolution {
		c.done = true
		return
	}
	if !c.greySet {
		c.rate = (c.rmin + c.rmax) / 2
		return
	}
	upper := c.rmax - c.gmax // unresolved span above the grey region
	lower := c.gmin - c.rmin // unresolved span below it
	if upper <= c.cfg.GreyResolution && lower <= c.cfg.GreyResolution {
		c.done = true
		return
	}
	// Probe the wider unresolved span first (§IV: halfway between the
	// grey bound and the corresponding avail-bw bound).
	if upper >= lower {
		c.rate = (c.gmax + c.rmax) / 2
	} else {
		c.rate = (c.rmin + c.gmin) / 2
	}
}

// Result returns the estimate accumulated so far. It is meaningful once
// Done reports true, but may be inspected mid-run for logging.
func (c *Controller) Result() Result {
	return Result{
		Lo: c.rmin, Hi: c.rmax,
		GreySet: c.greySet, GreyLo: c.gmin, GreyHi: c.gmax,
		Fleets: c.fleets,
		// HitMax: no fleet ever reported R > A, so the avail-bw may
		// exceed the probe-able maximum. HitMin is symmetric.
		HitMax: c.rmax == c.cfg.MaxRate,
		HitMin: c.rmin == 0,
	}
}
