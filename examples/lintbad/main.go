// Package main is the demonstration corpus for `soleil vet`: a small
// hydraulics system written to compile, vet and race cleanly while
// violating every source-level conformance rule the suite checks.
//
//	go run ./cmd/soleil vet -json -adl examples/lintbad/lintbad.xml ./examples/lintbad
//
// exits non-zero with at least one finding per rule:
//
//	SA01 — pump.sample is marked //soleil:noheap but allocates
//	SA02 — pump.calibrate stores a scope-allocated buffer into the
//	       longer-lived receiver
//	SA03 — pump.Invoke sleeps and blocks on a channel inside its
//	       run-to-completion section
//	SA04 — the registrations disagree with lintbad.xml: "valve" is
//	       declared but never registered, "gauge" is registered but
//	       not declared, active Pump's content has no Activate method
//	       and passive Panel's content has one
//
// and, under `soleil vet -arch`, every whole-architecture rule too:
//
//	SA05 — the two synchronous Pump/Panel bindings close a wait cycle
//	       both Invokes really perform
//	SA06 — pump.drainA and pump.drainB nest mu and iomu in opposite
//	       orders on paths reachable from Invoke
//	SA07 — pump hands its readings slice across the iPanel binding by
//	       reference
//	SA08 — Pump declares cost=1ms but its Invoke path drains the
//	       channel in an unbounded loop and consumes 5ms of CPU
//	SA09 — the contracted Pump→Tank binding promises a 1ms latency
//	       budget, but a message queued for the 10ms-period Tank waits
//	       up to 10ms for the release that drains it
//	SA10 — Tank serves 4ms of work per release (capacity 250/s) while
//	       its contracts admit 150+200 = 350 msg/s
//	SA11 — pump.Invoke spawns watch(), which loops forever with no
//	       stop signal, once per dispatch
package main

import (
	"fmt"
	"sync"
	"time"

	"soleil/internal/assembly"
	"soleil/internal/membrane"
	"soleil/internal/rtsj/memory"
	"soleil/internal/rtsj/thread"
)

// pump drives the architecture's active Pump component. It implements
// membrane.Content only — no Activate — so registering it for an
// active component is an SA04 error.
type pump struct {
	svc      *membrane.Services
	mu       sync.Mutex
	iomu     sync.Mutex
	readings []float64
	buf      []float64
	cmds     chan int
}

func (p *pump) Init(svc *membrane.Services) error {
	p.svc = svc
	p.cmds = make(chan int, 1)
	return nil
}

func (p *pump) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	go p.watch() // SA11: an unbounded goroutine per dispatch, leaked forever
	if itf == "iFlow" {
		time.Sleep(time.Millisecond) // SA03: sleeping in a run-to-completion section
		cmd := <-p.cmds              // SA03: bare receive may block forever
		for len(p.cmds) > 0 {        // SA08: no constant trip count on a costed path
			<-p.cmds
		}
		if err := env.Sched().Consume(5 * time.Millisecond); err != nil { // SA08: 5ms demand against cost=1ms
			return nil, err
		}
		p.drainA()
		p.drainB()
		port, err := p.svc.Port("iPanel")
		if err != nil {
			return nil, err
		}
		// SA05: the synchronous call into Panel, whose Invoke calls back
		// over iFlow; SA07: the readings slice crosses by reference.
		if _, err := port.Call(env, "show", p.readings); err != nil {
			return nil, err
		}
		return cmd, nil
	}
	return nil, fmt.Errorf("pump: unknown interface %q", itf)
}

// watch polls the command queue forever. Spawned from Invoke with no
// context, no stop channel and no way to return, every dispatch leaks
// one more copy of it (SA11).
func (p *pump) watch() {
	for {
		if len(p.cmds) > 0 {
			continue
		}
	}
}

// drainA and drainB take the pump's two mutexes in opposite orders
// (SA06): two released threads interleaving them deadlock.
func (p *pump) drainA() {
	p.mu.Lock()
	p.iomu.Lock()
	p.readings = p.readings[:0]
	p.iomu.Unlock()
	p.mu.Unlock()
}

func (p *pump) drainB() {
	p.iomu.Lock()
	p.mu.Lock()
	p.buf = p.buf[:0]
	p.mu.Unlock()
	p.iomu.Unlock()
}

// sample claims the no-heap contract and breaks it.
//
//soleil:noheap
func (p *pump) sample(v float64) string {
	p.readings = append(p.readings, v)   // SA01: append may grow onto the heap
	return fmt.Sprintf("%v", p.readings) // SA01: fmt allocates (and boxes)
}

// calibrate runs a measurement inside a temporary scope and leaks the
// scratch buffer out of it through the receiver.
func (p *pump) calibrate(ctx *memory.Context, scratch *memory.Area) error {
	return ctx.Enter(scratch, func() error {
		p.buf = make([]float64, 16) // SA02: scoped allocation stored into longer-lived state
		return nil
	})
}

// panel backs the passive Panel component but declares an Activate
// method that will never run (SA04 warning). Its Invoke calls back
// into the pump over iFlow, closing the SA05 wait cycle.
type panel struct{ svc *membrane.Services }

func (pn *panel) Init(svc *membrane.Services) error { pn.svc = svc; return nil }
func (pn *panel) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	port, err := pn.svc.Port("iFlow")
	if err != nil {
		return nil, err
	}
	return port.Call(env, "ack", arg)
}
func (pn *panel) Activate(env *thread.Env) error { return nil }

// tank backs the active Tank component. The implementation itself is
// conformant — Tank's findings (SA09, SA10) are architectural: its
// declared 4ms cost cannot keep up with what its binding contracts
// admit.
type tank struct{}

func (tank) Init(svc *membrane.Services) error { return nil }
func (tank) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	return nil, nil
}
func (tank) Activate(env *thread.Env) error { return nil }

// gauge is registered below but appears nowhere in lintbad.xml (SA04
// warning).
type gauge struct{}

func (gauge) Init(svc *membrane.Services) error { return nil }
func (gauge) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	return nil, nil
}

func register(r *assembly.Registry) error {
	// "valve" is declared by lintbad.xml but never registered (SA04 error).
	if err := r.Register("pump", func() membrane.Content { return &pump{} }); err != nil {
		return err
	}
	if err := r.Register("panel", func() membrane.Content { return &panel{} }); err != nil {
		return err
	}
	if err := r.Register("tank", func() membrane.Content { return tank{} }); err != nil {
		return err
	}
	return r.Register("gauge", func() membrane.Content { return gauge{} })
}

func main() {
	r := assembly.NewRegistry()
	if err := register(r); err != nil {
		fmt.Println("lintbad:", err)
		return
	}
	p := &pump{}
	_ = p.sample(1.0)
	fmt.Println("lintbad: registered a deliberately non-conforming system; run soleil vet on it")
}
