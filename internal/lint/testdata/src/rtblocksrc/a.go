// Corpus for the rtblock (SA03) analyzer.
package rtblocksrc

import (
	"net/http"
	"os"
	"sync"
	"time"
)

// component mirrors the membrane.Content shape: Invoke and Activate
// are run-to-completion sections by convention.
type component struct {
	mu sync.Mutex
	wg sync.WaitGroup
	ch chan int
}

func (c *component) Invoke(op string) (any, error) {
	time.Sleep(time.Millisecond) // want `SA03 .*time\.Sleep blocks a run-to-completion section`
	c.mu.Lock()                  // want `SA03 .*sync\.Mutex\.Lock may block`
	c.mu.Unlock()
	c.wg.Wait() // want `SA03 .*sync\.WaitGroup\.Wait may block`
	v := <-c.ch // want `SA03 .*channel receive may block`
	c.ch <- v   // want `SA03 .*channel send may block`
	c.slowStore(v)
	return v, nil
}

func (c *component) Activate() error {
	_, err := os.Open("/etc/hosts") // want `SA03 .*os\.Open performs unbounded I/O`
	if err != nil {
		return err
	}
	_, err = http.Get("http://example.invalid/") // want `SA03 .*http\.Get performs unbounded I/O`
	return err
}

// slowStore is reachable from Invoke, so its blocking is charged to
// the run-to-completion section.
func (c *component) slowStore(v int) {
	select { // want `SA03 .*select without default blocks`
	case c.ch <- v:
	case <-time.After(time.Second):
	}
}

// poll drains without blocking: select with a default case is the
// sanctioned idiom, including the channel operations in its cases.
//
//soleil:rtc
func (c *component) poll() (int, bool) {
	select {
	case v := <-c.ch:
		return v, true
	default:
		return 0, false
	}
}

// free is neither named Invoke/Activate nor annotated, and nothing
// run-to-completion reaches it: blocking here is fine.
func free(ch chan int) int {
	time.Sleep(time.Millisecond)
	return <-ch
}

// suppressed documents a bounded critical section.
func (c *component) Invoke2() {}

type guarded struct{ mu sync.Mutex }

func (g *guarded) Invoke() {
	g.mu.Lock() //soleil:ignore SA03 ceiling-emulated, critical section is two loads
	g.mu.Unlock()
}
