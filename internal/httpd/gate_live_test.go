package httpd

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rac-project/rac/internal/admission"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/vmenv"
	"github.com/rac-project/rac/internal/webtier"
)

// TestGateStaysOpenWithHeadroom offers Poisson arrivals far above the gate's
// cap to a live Level-1 server, open loop over 16 keep-alive connections.
// Many arrivals are refused, but the admitted ones finish well inside the
// SLA, so the gate must not end tightened: its scale ends at 1 or above, at
// a cap of 6 and at a cap of 8.
func TestGateStaysOpenWithHeadroom(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("live open-loop run: skipped under -short and the race detector")
	}
	// headroom is SLA/4 in wall time: the gate's cut-off.
	const headroom = time.Duration(0.5 / TimeScale * float64(time.Second))
	for _, limit := range []int{6, 8} {
		t.Run(fmt.Sprintf("cap%d", limit), func(t *testing.T) {
			// The claim needs a host that can drive the load and leave the
			// admitted work its headroom. The client must offer enough to be
			// refused at least one arrival per ten 200s: a client slowed by
			// other work on the host sends too little to press the cap. And
			// since the verdict reads wall-clock latency, fewer than 2 % of
			// the 200s may be slower than SLA/4, in the client's view, which
			// bounds the server's from above; on a host busy with other work
			// the gate is right to tighten, and the claim cannot be tested
			// there. A run short of either is measured again on a fresh
			// server, as other load on the host comes and goes, before the
			// test gives up.
			const attempts = 6 // at most 18 s of open loop
			for a := 1; ; a++ {
				res, snap, trace := runGateOpenLoop(t, limit, uint64(limit), headroom)
				if res.failed > 0 || snap.Epochs < 10 {
					t.Fatalf("premise broken: %+v, %d epochs", res, snap.Epochs)
				}
				pressed := res.refused >= res.ok/10
				share := float64(res.slow) / float64(res.ok)
				if (!pressed || share >= 0.02) && a < attempts {
					t.Logf("attempt %d: host busy: %+v, %.1f %% of the 200s took longer than %v", a, res, 100*share, headroom)
					continue
				}
				if !pressed {
					t.Fatalf("premise broken: %+v, too few refused to press the cap", res)
				}
				if share >= 0.02 {
					t.Skipf("host too busy: %.1f %% of the 200s took longer than %v", 100*share, headroom)
				}
				if snap.Scale < 1 {
					for _, ev := range trace.Snapshot() {
						t.Logf("epoch %d: %s reject %.3f late %.3f slow %.3f", ev.Iteration, ev.Detail, ev.RejectRate, ev.LateShare, ev.SlowShare)
					}
					t.Errorf("gate ended at scale %g (%v) while its admitted work had headroom", snap.Scale, snap.Regime)
				}
				return
			}
		})
	}
}

// runGateOpenLoop starts a Level-1 server whose gate admits limit requests,
// drives it open loop for 3 s at 6000 arrivals/s over 16 keep-alive
// connections, stops it, and returns what the client saw with the gate's
// final state and its epoch trace.
func runGateOpenLoop(t *testing.T, limit int, seed uint64, headroom time.Duration) (loopResult, admission.Snapshot, *telemetry.Trace) {
	t.Helper()
	params := webtier.DefaultParams()
	params.AdmitConcurrency = limit
	srv, err := NewServer(params, vmenv.Level1)
	if err != nil {
		t.Fatal(err)
	}
	trace := telemetry.NewTrace(64)
	srv.SetTrace(trace)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const conns = 16
	tp := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	client := &http.Client{Transport: tp, Timeout: 2 * time.Second}
	res := openLoop(client, "http://"+addr+"/home", sim.NewRNG(seed), 6000, 3*time.Second, conns, headroom)
	tp.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	_ = srv.Shutdown(ctx) // a drain cut short still stops the server
	cancel()
	return res, srv.gate.Snapshot(), trace
}

// loopResult counts what an open-loop client saw: 200s (slow of them took
// longer than the given limit from sending), 503s and everything else.
type loopResult struct{ ok, slow, refused, failed int64 }

// openLoop sends GETs at Poisson due times of the given rate for d, each of
// conns workers taking the next arrival in due order.
func openLoop(client *http.Client, url string, rng *sim.RNG, rate float64, d time.Duration, conns int, limit time.Duration) loopResult {
	var due []time.Duration
	for t := rng.ExpFloat64(1 / rate); t < d.Seconds(); t += rng.ExpFloat64(1 / rate) {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	var next, ok, slow, refused, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(due)); i = next.Add(1) - 1 {
				time.Sleep(time.Until(start.Add(due[i])))
				sent := time.Now()
				resp, err := client.Get(url)
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
					if time.Since(sent) > limit {
						slow.Add(1)
					}
				case http.StatusServiceUnavailable:
					refused.Add(1)
				default:
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return loopResult{ok: ok.Load(), slow: slow.Load(), refused: refused.Load(), failed: failed.Load()}
}
