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

// TestGateStaysOpenWithHeadroom offers Poisson arrivals well above the
// gate's admitted rate to a live Level-1 server, open loop over 16 keep-alive
// connections. Many arrivals are refused, but the admitted ones finish well
// inside the SLA, so the gate must not end tightened: its scale ends at 1 or
// above, at a cap of 6 and at a cap of 8.
//
// The offer is sized to the host: a short closed-loop run over the same
// connections measures the rate at which a fresh server with the same cap
// admits work, and the open loop offers offerFactor times that for about
// twenty gate epochs' worth of arrivals. A server that admits at most that
// rate then refuses (offerFactor−1) arrivals per admitted one, well past the
// one in ten the claim needs to press the cap.
func TestGateStaysOpenWithHeadroom(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("live open-loop run: skipped under -short and the race detector")
	}
	// headroom is SLA/4 in wall time: the gate's cut-off.
	const headroom = time.Duration(0.5 / TimeScale * float64(time.Second))
	const (
		calibration = time.Second / 2
		offerFactor = 1.5
		arrivals    = 20 * 1000 // twenty epochs of admission.DefaultEpoch
	)
	for _, limit := range []int{6, 8} {
		t.Run(fmt.Sprintf("cap%d", limit), func(t *testing.T) {
			// The claim needs a host that can drive the load and leave the
			// admitted work its headroom. A client slowed by other work on
			// the host falls behind its due times and sends less than the
			// calibrated multiple; if it then fails to press the cap, the
			// host, not the gate, is at fault. And since the verdict reads
			// wall-clock latency, fewer than 2 % of the 200s may be slower
			// than SLA/4, in the client's view, which bounds the server's
			// from above; on a host busy with other work the gate is right
			// to tighten, and the claim cannot be tested there. A run short
			// of either is calibrated and measured again on fresh servers,
			// as other load on the host comes and goes, before the test
			// gives up.
			const attempts = 6
			for a := 1; ; a++ {
				cal, _, _ := runGate(t, limit, func(client *http.Client, url string) loopResult {
					return closedLoop(client, url, calibration, gateConns)
				})
				if cal.failed > 0 || cal.ok == 0 {
					t.Fatalf("calibration broken: %+v", cal)
				}
				rate := offerFactor * float64(cal.ok) / calibration.Seconds()
				run := time.Duration(arrivals / rate * float64(time.Second))
				var took time.Duration
				res, snap, trace := runGate(t, limit, func(client *http.Client, url string) loopResult {
					start := time.Now()
					defer func() { took = time.Since(start) }()
					return openLoop(client, url, sim.NewRNG(uint64(limit)), rate, run, gateConns, headroom)
				})
				if res.failed > 0 || snap.Epochs < 10 {
					t.Fatalf("premise broken: %+v, %d epochs", res, snap.Epochs)
				}
				behind := took > run+run/10
				pressed := res.refused >= res.ok/10
				share := float64(res.slow) / float64(res.ok)
				if (!pressed || share >= 0.02) && a < attempts {
					t.Logf("attempt %d: host busy: offered %.0f/s over %v, %+v, %.1f %% of the 200s took longer than %v",
						a, rate, took, res, 100*share, headroom)
					continue
				}
				if !pressed && behind {
					t.Skipf("host too busy to offer %.0f arrivals/s: %v of arrivals took %v to send, %+v", rate, run, took, res)
				}
				if !pressed {
					t.Fatalf("premise broken: %+v at %.0f arrivals/s, too few refused to press the cap", res, rate)
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

// gateConns is how many keep-alive connections the gate test's client drives.
const gateConns = 16

// runGate starts a Level-1 server whose gate admits limit requests, drives
// it with drive over gateConns keep-alive connections, stops it, and returns
// what the client saw with the gate's final state and its epoch trace.
func runGate(t *testing.T, limit int, drive func(client *http.Client, url string) loopResult) (loopResult, admission.Snapshot, *telemetry.Trace) {
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
	tp := &http.Transport{MaxIdleConns: gateConns, MaxIdleConnsPerHost: gateConns, MaxConnsPerHost: gateConns}
	client := &http.Client{Transport: tp, Timeout: 2 * time.Second}
	res := drive(client, "http://"+addr+"/home")
	tp.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	_ = srv.Shutdown(ctx) // a drain cut short still stops the server
	cancel()
	return res, srv.gate.Snapshot(), trace
}

// loopResult counts what a client saw: 200s (slow of them took longer than
// the given limit from sending), 503s and everything else.
type loopResult struct{ ok, slow, refused, failed int64 }

// loopCounts is a loopResult that concurrent workers add to.
type loopCounts struct{ ok, slow, refused, failed atomic.Int64 }

// get sends one GET and counts its outcome.
func (c *loopCounts) get(client *http.Client, url string, limit time.Duration) {
	sent := time.Now()
	resp, err := client.Get(url)
	if err != nil {
		c.failed.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		c.ok.Add(1)
		if time.Since(sent) > limit {
			c.slow.Add(1)
		}
	case http.StatusServiceUnavailable:
		c.refused.Add(1)
	default:
		c.failed.Add(1)
	}
}

func (c *loopCounts) result() loopResult {
	return loopResult{ok: c.ok.Load(), slow: c.slow.Load(), refused: c.refused.Load(), failed: c.failed.Load()}
}

// openLoop sends GETs at Poisson due times of the given rate for d, each of
// conns workers taking the next arrival in due order.
func openLoop(client *http.Client, url string, rng *sim.RNG, rate float64, d time.Duration, conns int, limit time.Duration) loopResult {
	var due []time.Duration
	for t := rng.ExpFloat64(1 / rate); t < d.Seconds(); t += rng.ExpFloat64(1 / rate) {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	var next atomic.Int64
	var counts loopCounts
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(due)); i = next.Add(1) - 1 {
				time.Sleep(time.Until(start.Add(due[i])))
				counts.get(client, url, limit)
			}
		}()
	}
	wg.Wait()
	return counts.result()
}

// closedLoop has each of conns workers send GETs back to back until d has
// passed.
func closedLoop(client *http.Client, url string, d time.Duration, conns int) loopResult {
	var counts loopCounts
	var wg sync.WaitGroup
	end := time.Now().Add(d)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				counts.get(client, url, time.Hour)
			}
		}()
	}
	wg.Wait()
	return counts.result()
}
