package assembly

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"soleil/internal/model"
	"soleil/internal/rtsj/thread"
)

// Pacer drives a deployed system's active components in *wall-clock*
// time. The simulated scheduler (RunFor) owns virtual time and is
// single-use — the right tool for analysis, the wrong one for a node
// agent that must serve a partition indefinitely while peers dial in.
// The pacer is the serving-mode counterpart: one goroutine per active
// component re-creates the generated activation loop against the real
// clock (periodic components at their declared period, sporadic and
// aperiodic ones on message arrival), with thread-body errors absorbed
// resiliently so a failing component degrades under supervision
// instead of taking its driver down.
type Pacer struct {
	sys *System

	activations atomic.Int64
	deliveries  atomic.Int64
	errors      atomic.Int64

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
		node, ok := p.sys.Node(c.Name())
		if !ok {
			continue
		}
		act := *c.Activation()
		noHeap := false
		if td, err := p.sys.Architecture().EffectiveThreadDomain(c); err == nil {
			noHeap = td.Domain().Kind == model.NoHeapRealtimeThread
		}
		env, closeEnv, err := p.sys.NewEnv(noHeap)
		if err != nil {
			close(p.stop)
			p.wg.Wait()
			return fmt.Errorf("assembly: pacer env for %q: %w", c.Name(), err)
		}
		var wake chan struct{}
		if act.Kind != model.PeriodicActivation {
			// The initial token releases the component once, draining
			// whatever was queued before the channel was published.
			wake = make(chan struct{}, 1)
			wake <- struct{}{}
			p.sys.holders[c.Name()].wake.Store(&wake)
		}
		p.wg.Add(1)
		go p.drive(node, act, wake, env, closeEnv)
	}
	p.started = true
	return nil
}

func (p *Pacer) drive(node Node, act model.Activation, wake chan struct{}, env *thread.Env, closeEnv func()) {
	defer p.wg.Done()
	defer closeEnv()

	var mit time.Duration
	switch act.Kind {
	case model.PeriodicActivation:
		ticker := time.NewTicker(act.Period)
		defer ticker.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-ticker.C:
				p.deliver(node, env)
				p.activate(node, env)
			}
		}
	case model.SporadicActivation:
		mit = act.Period
	default:
		// One release of its own logic, as the generated loop does.
		p.activate(node, env)
	}

	// Arrival-driven releases, each held until the minimum
	// interarrival time since the previous one has passed (the rule
	// of the scheduler's fireArrival).
	hold := time.NewTimer(time.Hour)
	hold.Stop()
	defer hold.Stop()
	var last time.Time
	for {
		<-wake
		select {
		case <-p.stop:
			return
		default:
		}
		if mit > 0 {
			if wait := time.Until(last.Add(mit)); wait > 0 {
				hold.Reset(wait)
				select {
				case <-p.stop:
					return
				case <-hold.C:
				}
			}
			last = time.Now()
		}
		if !p.deliver(node, env) {
			// The drain stopped at an error, maybe with messages
			// still queued: release again for them.
			post(wake)
		}
	}
}

// deliver drains the component's inbound async buffers and reports
// whether the drain ran to completion.
func (p *Pacer) deliver(node Node, env *thread.Env) bool {
	return p.run(node, func() error {
		n, err := node.Deliver(env)
		p.deliveries.Add(int64(n))
		return err
	})
}

// activate runs one release of the component's own logic.
func (p *Pacer) activate(node Node, env *thread.Env) {
	p.run(node, func() error {
		if err := node.Activate(env); err != nil {
			return err
		}
		p.activations.Add(1)
		return nil
	})
}

// run performs one driver operation under the resilient discipline
// supervised nodes run under, and reports whether it succeeded.
func (p *Pacer) run(node Node, fn func() error) bool {
	if p.sys.absorb(node.Name(), true, fn) != nil {
		p.errors.Add(1)
		return false
	}
	return true
}

// Activations returns how many component releases have run.
func (p *Pacer) Activations() int64 { return p.activations.Load() }

// Deliveries returns how many async messages the drivers drained.
func (p *Pacer) Deliveries() int64 { return p.deliveries.Load() }

// Errors returns how many activation errors were absorbed.
func (p *Pacer) Errors() int64 { return p.errors.Load() }

// Close stops the drivers and waits for them to finish. The system
// itself stays up (components remain started); a pacer can be
// re-created after Close.
func (p *Pacer) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started {
		return
	}
	close(p.stop)
	// Arrival-driven drivers wait on their wake channel alone, the
	// cheapest wait: wake them to see the stop.
	for _, h := range p.sys.holders {
		if wake := h.wake.Load(); wake != nil {
			post(*wake)
		}
	}
	p.wg.Wait()
	p.started = false
}
