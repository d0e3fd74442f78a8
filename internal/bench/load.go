package bench

import (
	"context"
	"fmt"
	"time"

	"github.com/rac-project/rac/internal/httpd"
	"github.com/rac-project/rac/internal/loadgen"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
	"github.com/rac-project/rac/internal/webtier"
)

// FigLoad is the data-plane throughput/scaling figure (no paper counterpart,
// so it is not in FigureIDs): the open-loop engine offers increasing load to
// a fresh live stack and the figure reports, per offered rate, the completed
// throughput and the rate shed by admission control. A closed-loop driver
// cannot produce this curve — its offered load collapses to whatever the
// system completes — which is exactly the coordinated-omission blind spot the
// open loop removes. Unlike the simulator figures this drives real HTTP over
// wall clock, so it lives behind `racbench -fig load`.
func (h *Harness) FigLoad() (*Figure, error) {
	rates := []float64{5, 10, 20, 40, 80}
	interval := 2 * time.Second
	if h.opts.Quick {
		rates = []float64{5, 20}
		interval = 500 * time.Millisecond
	}

	fig := &Figure{
		ID:     "load",
		Title:  "Open-loop offered load vs completed and shed throughput (live stack, Level-2)",
		XLabel: "offered load (req/s)",
		YLabel: "throughput (req/s)",
		X:      rates,
	}
	completed := Series{Label: "completed"}
	shed := Series{Label: "shed"}

	for i, rate := range rates {
		srv, err := httpd.NewServer(webtier.DefaultParams(), vmenv.Level2)
		if err != nil {
			return nil, err
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		driver, err := loadgen.New(loadgen.Options{
			BaseURL:     "http://" + addr,
			Workload:    tpcw.Workload{Mix: tpcw.Shopping, Clients: 1},
			Seed:        h.opts.Seed ^ (0x10AD + uint64(i)),
			Rate:        rate,
			MaxInFlight: 128,
		})
		if err == nil {
			var res loadgen.Result
			res, err = driver.Run(context.Background(), interval)
			if err == nil {
				completed.Values = append(completed.Values, res.Throughput)
				paperSeconds := interval.Seconds() * httpd.TimeScale
				shed.Values = append(shed.Values, float64(res.Shed)/paperSeconds)
			}
		}
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		serr := srv.Shutdown(sctx)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("bench: load rate %.0f: %w", rate, err)
		}
		if serr != nil {
			return nil, fmt.Errorf("bench: load rate %.0f shutdown: %w", rate, serr)
		}
	}
	fig.Series = []Series{completed, shed}
	fig.Notes = append(fig.Notes,
		"open-loop engine: Poisson arrivals, 128 in-flight bound",
		fmt.Sprintf("wall-clock interval %v per point (x%g time scale)", interval, float64(httpd.TimeScale)))
	return fig, nil
}
