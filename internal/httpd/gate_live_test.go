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
			res := openLoop(client, "http://"+addr+"/home", sim.NewRNG(uint64(limit)), 6000, 3*time.Second, conns, headroom)
			tp.CloseIdleConnections()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = srv.Shutdown(ctx) // a drain cut short still stops the server
			cancel()

			snap := srv.gate.Snapshot()
			if res.failed > 0 || res.refused < res.ok/10 || snap.Epochs < 10 {
				t.Fatalf("premise broken: %+v, %d epochs", res, snap.Epochs)
			}
			// The verdict reads wall-clock latency, so the claim needs a host
			// that leaves the admitted work its headroom: fewer than 2 % of
			// the 200s slower than SLA/4, in the client's view, which bounds
			// the server's from above. On a host busy with other work the
			// gate is right to tighten, and the claim cannot be tested there.
			if share := float64(res.slow) / float64(res.ok); share >= 0.02 {
				t.Skipf("host too busy: %.1f %% of the 200s took longer than %v", 100*share, headroom)
			}
			if snap.Scale < 1 {
				for _, ev := range trace.Snapshot() {
					t.Logf("epoch %d: %s reject %.3f late %.3f slow %.3f", ev.Iteration, ev.Detail, ev.RejectRate, ev.LateShare, ev.SlowShare)
				}
				t.Errorf("gate ended at scale %g (%v) while its admitted work had headroom", snap.Scale, snap.Regime)
			}
		})
	}
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
