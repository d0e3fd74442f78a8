package httpd

import (
	"fmt"
	"strings"
	"testing"

	"github.com/rac-project/rac/internal/vmenv"
)

// TestSearchMatchesPerRequestLowering holds search, which matches against
// titles lower-cased once at construction, to the reply of lower-casing
// every title on every request.
func TestSearchMatchesPerRequestLowering(t *testing.T) {
	b := newBookstore(vmenv.Level1)
	want := func(q string) string {
		q = strings.ToLower(q)
		hits := 0
		for i := range b.items {
			if q == "" || strings.Contains(strings.ToLower(b.items[i].Title), q) {
				hits++
			}
		}
		return fmt.Sprintf("hits=%d", hits)
	}
	for _, q := range []string{"", "systems", "SyStEmS", "Book 01", "BOOK", "on Queues", "zzz", "Author"} {
		if got, want := b.search(q), want(q); got != want {
			t.Errorf("search(%q) = %q, want %q", q, got, want)
		}
	}
	if got := b.search("zzz"); got != "hits=0" {
		t.Errorf("no-hit query replied %q", got)
	}
}

// TestOrderCountMatchesOrderTable holds the order count to the order table
// it replaced — appended per order, trimmed to its newest 5 000 past 10 000 —
// in both replies that show it.
func TestOrderCountMatchesOrderTable(t *testing.T) {
	b := newBookstore(vmenv.Level1)
	var table []int
	nextID := 0
	for i := 0; i < 12000; i++ {
		nextID++
		table = append(table, nextID)
		if len(table) > 10000 {
			table = append(table[:0], table[5000:]...)
		}
		if got, want := b.placeOrder(), fmt.Sprintf("order=%d", nextID); got != want {
			t.Fatalf("order %d: %q, want %q", i, got, want)
		}
		if got, want := b.bestSellers(), fmt.Sprintf("catalogue=%d orders=%d", len(b.items), len(table)); got != want {
			t.Fatalf("after order %d: %q, want %q", i, got, want)
		}
	}
}
