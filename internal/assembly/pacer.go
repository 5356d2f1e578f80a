package assembly

import (
	"fmt"
	"sync"
	"time"

	"soleil/internal/model"
)

// Pacer drives a deployed system's active components in *wall-clock*
// time. The simulated scheduler (RunFor) owns virtual time and is
// single-use — the right tool for analysis, the wrong one for a node
// agent that must serve a partition indefinitely while peers dial in.
// The pacer is the serving-mode counterpart: it runs each active
// component's thread body, the activation loop RunFor runs, on a
// driver goroutine, in the environment the component's thread gets
// (rooted in its memory area, or around its scope, which each release
// enters; no-heap for an NHRT). The pacer supplies only the
// wall-clock wait for the next release, and runs every loop
// resiliently, so a failing component degrades under supervision
// instead of taking its driver down.
type Pacer struct {
	sys   *System
	stats loopStats

	mu      sync.Mutex
	started bool
	stop    chan struct{}
	wg      sync.WaitGroup
}

// PacerOptions tunes a Pacer. The zero value is the only setting.
type PacerOptions struct {
	// Deprecated: sporadic and aperiodic components are released on
	// message arrival, so there is no polling interval to tune. The
	// field is ignored.
	SporadicPoll time.Duration
}

// NewPacer prepares a pacer for every active primitive of the system.
// The system must be deployed in SOLEIL mode (the serving mode) and
// is Start()ed by Run if it has not been already.
func NewPacer(sys *System, _ PacerOptions) (*Pacer, error) {
	if sys.Mode() != Soleil {
		return nil, fmt.Errorf("assembly: pacer requires SOLEIL mode, not %v", sys.Mode())
	}
	return &Pacer{sys: sys}, nil
}

// Run starts the system (if needed) and launches one driver goroutine
// per active component. It returns immediately; Close stops and joins
// the drivers.
func (p *Pacer) Run() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return nil
	}
	if err := p.sys.Start(); err != nil {
		return err
	}
	p.stop = make(chan struct{})
	for _, c := range p.sys.Architecture().ComponentsOfKind(model.Active) {
		env, closeEnv, err := p.sys.threads[c.Name()].NewEnv(nil)
		if err != nil {
			p.halt()
			return fmt.Errorf("assembly: pacer env for %q: %w", c.Name(), err)
		}
		wait := p.waiter(c)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer closeEnv()
			p.sys.threadBody(env, c, true, &p.stats, wait)
		}()
	}
	p.started = true
	return nil
}

// waiter builds one driver's wall-clock wait for the next release: a
// periodic component's period ticker (its loop ran the first release
// at start, as the scheduler's at t=0), else a wake token posted by
// every send to it. A sporadic release is held until the MIT has
// passed since the last release that delivered or failed a message,
// the rule of the scheduler's fireArrival, where only arrivals release
// the task. A drain that stopped at an error releases again. The wait
// returns false once the pacer stops.
func (p *Pacer) waiter(c *model.Component) func(delivered int, drained bool) bool {
	act := c.Activation()
	if act.Kind == model.PeriodicActivation {
		ticker := time.NewTicker(act.Period)
		return func(int, bool) bool {
			select {
			case <-p.stop:
				ticker.Stop()
				return false
			case <-ticker.C:
				return true
			}
		}
	}
	wake := make(chan struct{}, 1)
	p.sys.holders[c.Name()].wake.Store(&wake)
	var mit time.Duration
	if act.Kind == model.SporadicActivation {
		mit = act.Period
	}
	hold := time.NewTimer(time.Hour)
	hold.Stop()
	// rel is when the current release began, last when the previous
	// one that delivered or failed a message began.
	var last time.Time
	rel := time.Now()
	return func(delivered int, drained bool) bool {
		if delivered > 0 || !drained {
			last = rel
		}
		if !drained {
			post(wake)
		}
		<-wake
		select {
		case <-p.stop:
			return false
		default:
		}
		if mit > 0 {
			if wait := time.Until(last.Add(mit)); wait > 0 {
				hold.Reset(wait)
				select {
				case <-p.stop:
					return false
				case <-hold.C:
				}
			}
			rel = time.Now()
		}
		return true
	}
}

// Activations returns how many component releases have run.
func (p *Pacer) Activations() int64 { return p.stats.activations.Load() }

// Deliveries returns how many async messages the drivers drained.
func (p *Pacer) Deliveries() int64 { return p.stats.deliveries.Load() }

// Errors returns how many activation errors were absorbed.
func (p *Pacer) Errors() int64 { return p.stats.errors.Load() }

// Close stops the drivers and waits for them to finish. The system
// itself stays up (components remain started); a pacer can be
// re-created after Close.
func (p *Pacer) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started {
		return
	}
	p.halt()
	p.started = false
}

// halt stops the drivers and joins them.
func (p *Pacer) halt() {
	close(p.stop)
	// Arrival-driven drivers wait on their wake channel alone, the
	// cheapest wait: wake them to see the stop.
	for _, h := range p.sys.holders {
		if wake := h.wake.Load(); wake != nil {
			post(*wake)
		}
	}
	p.wg.Wait()
}
