package main

import (
	"fmt"
	"sync"
	"time"

	"soleil/internal/assembly"
	"soleil/internal/cluster"
	"soleil/internal/dist"
	"soleil/internal/load"
	"soleil/internal/membrane"
	"soleil/internal/obs"
	"soleil/internal/validate"
)

// sporadicPoll is the pacer's drain cadence, as `soleil load` deploys
// a scenario.
const sporadicPoll = 200 * time.Microsecond

// sut is one deployed system under test, in process or across
// loopback cluster agents.
type sut struct {
	// targets are the entry nodes, with the system each belongs to.
	targets []target
	// setup is validate + deploy + start (for the cluster: plan +
	// agents up + links connected); start is its last part (pacer up,
	// or cluster.Start of every agent and the links connected).
	setup, start time.Duration
	// registries hold the deployments' metrics: queues, gates, links.
	registries []*obs.Registry
	// systems are the deployed systems, one per agent.
	systems []*assembly.System
	// agents are the cluster agents, nil in process.
	agents []*cluster.Agent
	// close stops the pacers and tears the system down;
	// it may be called more than once.
	close func()
	// born is when the gates were created, for the contract check.
	born time.Time
}

type target struct {
	sys  *assembly.System
	node assembly.Node
}

// depth sums the depth of every buffer and link queue: the messages
// in flight inside the system.
func (s *sut) depth() int {
	n := 0
	for _, reg := range s.registries {
		for _, name := range reg.QueueNames() {
			if st, ok := reg.Queue(name); ok {
				n += st().Depth
			}
		}
	}
	return n
}

// queueStats lists every buffer and link queue.
func (s *sut) queueStats() []obs.QueueStats {
	var out []obs.QueueStats
	for _, reg := range s.registries {
		for _, name := range reg.QueueNames() {
			if st, ok := reg.Queue(name); ok {
				out = append(out, st())
			}
		}
	}
	return out
}

// gateStat is one contracted binding's admission account.
type gateStat struct {
	name           string
	admitted, shed int64
	rate           float64
	burst          int
}

// gates lists every admission gate with its contract.
func (s *sut) gates(scn *load.Scenario) []gateStat {
	contracts := make(map[string]gateStat)
	for _, b := range scn.Arch.Bindings() {
		if b.Contract != nil {
			contracts[b.String()] = gateStat{name: b.String(), rate: b.Contract.MaxRate, burst: b.Contract.EffectiveBurst()}
		}
	}
	var out []gateStat
	for _, reg := range s.registries {
		for _, name := range reg.GateNames() {
			st, ok := reg.Gate(name)
			if !ok {
				continue
			}
			g, known := contracts[name]
			if !known {
				continue
			}
			snap := st()
			g.admitted, g.shed = snap.Admitted, snap.Shed
			out = append(out, g)
		}
	}
	return out
}

// reconnects sums the cluster links' reconnections.
func (s *sut) reconnects() int64 {
	var n int64
	for _, ag := range s.agents {
		n += ag.Reconnects()
	}
	return n
}

// deploy brings the scenario up with the benchmark's contents. A
// non-nil tracer installs the timing interceptor through
// Config.Interceptors (in process; cluster agents expose no such
// hook) and rebinds every client port to a timing wrapper.
func deploy(scn *load.Scenario, led *ledger, tr *tracer) (*sut, error) {
	reg, err := newRegistry(led, tr)
	if err != nil {
		return nil, err
	}
	var s *sut
	if scn.Deploy == nil {
		s, err = deployInProcess(scn, reg, tr)
	} else {
		s, err = deployCluster(scn, reg)
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		for _, sys := range s.systems {
			if err := tr.rebindPorts(sys); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	return s, nil
}

func deployInProcess(scn *load.Scenario, reg *assembly.Registry, tr *tracer) (*sut, error) {
	t0 := time.Now()
	if rep := validate.Validate(scn.Arch); !rep.OK() {
		return nil, fmt.Errorf("validate: %d errors; first: %s", len(rep.Errors()), rep.Errors()[0])
	}
	metrics := obs.NewRegistry()
	cfg := assembly.Config{Mode: assembly.Soleil, Registry: reg, Resilient: true, Metrics: metrics}
	if tr != nil {
		cfg.Interceptors = tr.interceptors
	}
	sys, err := assembly.Deploy(scn.Arch, cfg)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	pacer, err := assembly.NewPacer(sys, assembly.PacerOptions{SporadicPoll: sporadicPoll})
	if err != nil {
		return nil, err
	}
	if err := pacer.Run(); err != nil {
		return nil, err
	}
	t3 := time.Now()
	s := &sut{
		setup: t3.Sub(t0), start: t3.Sub(t2),
		registries: []*obs.Registry{metrics},
		systems:    []*assembly.System{sys},
		close:      pacer.Close,
		born:       t0,
	}
	for _, e := range scn.Entries {
		node, ok := sys.Node(e)
		if !ok {
			pacer.Close()
			return nil, fmt.Errorf("entry %q not deployed", e)
		}
		s.targets = append(s.targets, target{sys, node})
	}
	return s, nil
}

// linkWait bounds how long set-up waits for the cluster links.
const linkWait = 5 * time.Second

func deployCluster(scn *load.Scenario, reg *assembly.Registry) (*sut, error) {
	t0 := time.Now()
	plan, err := cluster.Compute(scn.Arch, scn.Deploy)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	var mu sync.Mutex
	addrs := make(map[string]string)
	resolve := func(node string) (string, error) {
		mu.Lock()
		defer mu.Unlock()
		addr, ok := addrs[node]
		if !ok {
			return "", fmt.Errorf("node %s not up yet", node)
		}
		return addr, nil
	}
	s := &sut{born: t0}
	s.close = func() {
		for _, ag := range s.agents {
			ag.Close()
		}
	}
	for _, np := range plan.Nodes() {
		ag, err := cluster.Start(cluster.AgentConfig{
			Node:     np.Name,
			Plan:     plan,
			Registry: reg,
			Resolver: resolve,
			Dial:     dist.DialConfig{Timeout: 2 * time.Second, Base: time.Millisecond, Max: 20 * time.Millisecond},
			Pacer:    assembly.PacerOptions{SporadicPoll: sporadicPoll},
		})
		if err != nil {
			s.close()
			return nil, err
		}
		mu.Lock()
		addrs[np.Name] = ag.Addr()
		mu.Unlock()
		s.agents = append(s.agents, ag)
		s.registries = append(s.registries, ag.Registry())
		s.systems = append(s.systems, ag.System())
	}
	t2 := time.Now()
	for !s.linksConnected() {
		if time.Since(t2) > linkWait {
			s.close()
			return nil, fmt.Errorf("cluster links not connected after %v", linkWait)
		}
		time.Sleep(200 * time.Microsecond)
	}
	t3 := time.Now()
	s.setup, s.start = t3.Sub(t0), t3.Sub(t1)
	for _, e := range scn.Entries {
		found := false
		for _, sys := range s.systems {
			if node, ok := sys.Node(e); ok {
				s.targets = append(s.targets, target{sys, node})
				found = true
				break
			}
		}
		if !found {
			s.close()
			return nil, fmt.Errorf("no agent hosts entry %q", e)
		}
	}
	return s, nil
}

// linksConnected reports whether every export link is connected.
func (s *sut) linksConnected() bool {
	for _, reg := range s.registries {
		for _, name := range reg.LinkNames() {
			st, ok := reg.Link(name)
			if !ok {
				continue
			}
			if ls := st(); ls.Dir == "export" && !ls.Connected {
				return false
			}
		}
	}
	return true
}

// membraneOf exposes a SOLEIL node's membrane; the public Node
// interface does not carry it, the node type does.
func membraneOf(n assembly.Node) (*membrane.Membrane, bool) {
	mn, ok := n.(interface{ Membrane() *membrane.Membrane })
	if !ok {
		return nil, false
	}
	return mn.Membrane(), true
}
