package httpd

import (
	"fmt"
	"strings"
	"sync"

	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
)

// bookstore is the in-memory database tier: a small TPC-W-like catalogue
// with realistic query shapes (point lookups, scans, inserts) plus an
// artificial service delay scaled by the VM level, standing in for the
// MySQL instance of the paper's testbed.
type bookstore struct {
	mu    sync.RWMutex
	level vmenv.Level
	items []item
	// orders is the size of the order table. Nothing reads an order back,
	// so only the count is kept.
	orders int
	nextID int
	// Catalogue popularity is Zipf-skewed, as in TPC-W's item access
	// pattern; the sampler is guarded by mu.
	zipf *sim.Zipf
}

type item struct {
	ID      int
	Title   string
	Author  string
	Subject string
	PriceC  int    // cents
	lower   string // Title lower-cased once, what search matches against
}

func newBookstore(level vmenv.Level) *bookstore {
	b := &bookstore{level: level}
	b.zipf = sim.NewZipf(sim.NewRNG(0xB00C), 1.0, 600)
	subjects := []string{"systems", "databases", "networks", "learning", "queues", "virtualization"}
	for i := 0; i < 600; i++ {
		title := fmt.Sprintf("Book %03d on %s", i+1, subjects[i%len(subjects)])
		b.items = append(b.items, item{
			ID:      i + 1,
			Title:   title,
			Author:  fmt.Sprintf("Author %02d", i%37),
			Subject: subjects[i%len(subjects)],
			PriceC:  995 + (i%40)*100,
			lower:   strings.ToLower(title),
		})
	}
	return b
}

func (b *bookstore) setLevel(level vmenv.Level) {
	b.mu.Lock()
	b.level = level
	b.mu.Unlock()
}

// delayFactor scales database service time with VM strength: Level-1 is the
// reference. The factor is quadratic in the CPU ratio so the effect stays
// visible above the fixed per-request HTTP overhead of the compressed time
// scale (halving the vCPUs roughly quadruples the artificial delay,
// approximating the combined CPU and buffer-cache loss).
func (b *bookstore) delayFactor() float64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	r := vmenv.Level1.CPUCapacity() / b.level.CPUCapacity()
	return r * r
}

// query runs the class's database work and returns a short result string.
func (b *bookstore) query(class tpcw.Class, q string) string {
	demand := tpcw.ClassDemand(class)
	// The DB CPU and I/O shares both burn at the db tier here.
	spin(scaled((demand.DB + demand.IO) * b.delayFactor()))

	switch class {
	case tpcw.ClassSearch:
		return b.search(q)
	case tpcw.ClassBuyConfirm:
		return b.placeOrder()
	case tpcw.ClassProductDetail:
		return b.detail()
	default:
		return b.bestSellers()
	}
}

func (b *bookstore) search(q string) string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	q = strings.ToLower(q)
	hits := 0
	for i := range b.items {
		if q == "" || strings.Contains(b.items[i].lower, q) {
			hits++
		}
	}
	return fmt.Sprintf("hits=%d", hits)
}

func (b *bookstore) detail() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Item popularity follows a Zipf law, like TPC-W's catalogue access.
	idx := b.zipf.Next() % len(b.items)
	it := b.items[idx]
	return fmt.Sprintf("item=%d price=%d", it.ID, it.PriceC)
}

func (b *bookstore) placeOrder() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	b.orders++
	// Keep the order table bounded in long-running demos: past 10 000 orders
	// the oldest 5 000 are dropped.
	if b.orders > 10000 {
		b.orders -= 5000
	}
	return fmt.Sprintf("order=%d", b.nextID)
}

func (b *bookstore) bestSellers() string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return fmt.Sprintf("catalogue=%d orders=%d", len(b.items), b.orders)
}
