package parallel

import "sync"

// Lender lends scratch — a value one call works in and nothing keeps — to
// whichever goroutine asks, and keeps every value given back, each as large
// as the largest use it served. Every value it keeps came from an earlier
// Borrow, so it never keeps more than were out at once. The zero Lender is
// ready to use and safe for concurrent use. Unlike a sync.Pool it keeps its
// scratch across garbage collections, and the race detector does not drop
// what it is given, so a path that borrows allocates nothing once its
// scratch has grown.
type Lender[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Borrow returns scratch no other goroutine uses until it is given back:
// one given back earlier, else a new zero value.
func (l *Lender[T]) Borrow() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		w := l.free[n-1]
		l.free = l.free[:n-1]
		return w
	}
	return new(T)
}

// GiveBack returns scratch borrowed from l, which lends it again. The
// caller must not use w afterwards.
func (l *Lender[T]) GiveBack(w *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.free = append(l.free, w)
}
