package webtier

import "fmt"

// clientSet is a bitset over client indices. The tick iterates it word by
// word with bits.TrailingZeros64, which visits members in ascending index —
// the order the model's RNG draws and queue pushes depend on.
type clientSet []uint64

// reset empties the set and sizes it for n clients.
func (s *clientSet) reset(n int) {
	words := (n + 63) >> 6
	if cap(*s) < words {
		*s = make(clientSet, words)
		return
	}
	*s = (*s)[:words]
	clear(*s)
}

func (s clientSet) add(i int)      { s[i>>6] |= 1 << (uint(i) & 63) }
func (s clientSet) del(i int)      { s[i>>6] &^= 1 << (uint(i) & 63) }
func (s clientSet) has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

const (
	// calendarSlots is the ring size of a calendar: 4096 one-tick buckets,
	// 102 s at the shipped 25 ms slice. Later deadlines wait in their slot
	// across laps.
	calendarSlots = 1 << 12
	calendarMask  = calendarSlots - 1
	// maxBucket clamps the bucket of huge or infinite deadlines.
	maxBucket = 1 << 62
)

// calendar is a timer wheel of per-client deadlines: a ring of one-tick
// buckets, each an intrusive doubly linked list of clients, with at most one
// entry per client, re-keyed by moving it. set and remove are O(1) and nothing
// is allocated after reset; popDue walks only the buckets between its previous
// call and t.
//
// A bucket only locates a timer; the key <= t test decides whether it is due.
// That is exact because bucket is monotone in the key, so key <= t implies
// bucket(key) <= bucket(t). Two invariants carry the argument: every armed
// client sits at bucket max(bucket(key), cursor at arming) — a deadline below
// the cursor is filed at the cursor — and no armed client sits below cursor.
type calendar struct {
	inv    float64   // 1 / bucket width
	key    []float64 // key[i]: client i's deadline, meaningful while at[i] >= 0
	at     []int64   // at[i]: client i's absolute bucket, -1 when unarmed
	next   []int32   // next[i], prev[i]: client i's neighbours in its slot's list, -1 at the ends
	prev   []int32
	head   []int32 // head[s]: first client of ring slot s, -1 when empty
	cursor int64   // no armed client sits in an earlier bucket
	n      int     // armed clients
}

// reset disarms every timer, sizes the calendar for n clients and starts the
// ring at now, with buckets width seconds wide.
func (c *calendar) reset(n int, width, now float64) {
	if cap(c.key) < n {
		c.key = make([]float64, n)
		c.at = make([]int64, n)
		c.next = make([]int32, n)
		c.prev = make([]int32, n)
	}
	c.key, c.at, c.next, c.prev = c.key[:n], c.at[:n], c.next[:n], c.prev[:n]
	for i := range c.at {
		c.at[i] = -1
	}
	if c.head == nil {
		c.head = make([]int32, calendarSlots)
	}
	for s := range c.head {
		c.head[s] = -1
	}
	c.inv = 1 / width
	c.cursor = c.bucket(now)
	c.n = 0
}

// bucket maps a deadline to its absolute bucket: a monotone function of k,
// clamped at maxBucket.
func (c *calendar) bucket(k float64) int64 {
	if x := k * c.inv; x < maxBucket {
		return int64(x)
	}
	return maxBucket
}

func (c *calendar) len() int { return c.n }

func (c *calendar) has(i int) bool { return c.at[i] >= 0 }

// set arms client i's timer at k, inserting it or moving its existing entry.
func (c *calendar) set(i int, k float64) {
	if c.at[i] >= 0 {
		c.unlink(i)
	} else {
		c.n++
	}
	b := max(c.bucket(k), c.cursor)
	c.key[i], c.at[i] = k, b
	s := b & calendarMask
	h := c.head[s]
	c.next[i], c.prev[i] = h, -1
	if h >= 0 {
		c.prev[h] = int32(i)
	}
	c.head[s] = int32(i)
}

// remove disarms client i's timer; a client without one is left alone.
func (c *calendar) remove(i int) {
	if c.at[i] < 0 {
		return
	}
	c.unlink(i)
	c.at[i] = -1
	c.n--
}

// unlink takes armed client i out of its slot's list.
func (c *calendar) unlink(i int) {
	p, nx := c.prev[i], c.next[i]
	if p >= 0 {
		c.next[p] = nx
	} else {
		c.head[c.at[i]&calendarMask] = nx
	}
	if nx >= 0 {
		c.prev[nx] = p
	}
}

// popDue disarms every timer with key <= t and appends its client to dst, in
// no particular order (callers that care about client order sort the result).
// A due timer sits at max(bucket(key), cursor at arming) <= hi, and at or
// above the cursor, so only the buckets from the cursor to hi — at most one
// lap of ring slots — are walked. The key test alone decides: entries of a
// later lap sharing a slot have key > t. The cursor then moves to hi, whose
// later entries wait for the next call.
func (c *calendar) popDue(t float64, dst []int32) []int32 {
	hi := max(c.bucket(t), c.cursor)
	lo := max(c.cursor, hi-calendarMask)
	for b := lo; b <= hi; b++ {
		for i := c.head[b&calendarMask]; i >= 0; {
			nx := c.next[i]
			if c.key[i] <= t {
				dst = append(dst, i)
				c.unlink(int(i))
				c.at[i] = -1
				c.n--
			}
			i = nx
		}
	}
	c.cursor = hi
	return dst
}

// checkClient verifies that client i's timer is armed exactly when want
// says, and then at key.
func (c *calendar) checkClient(i int, want bool, key float64) error {
	if c.has(i) != want {
		return fmt.Errorf("client %d armed=%v, state says %v", i, !want, want)
	}
	if want && c.key[i] != key {
		return fmt.Errorf("client %d armed at %v, state says %v", i, c.key[i], key)
	}
	return nil
}

// check verifies the calendar's invariants: every list is well linked, every
// armed client is in the list of its bucket's slot, its bucket is
// max(bucket(key), cursor) — the two invariants above together — and the
// count matches.
func (c *calendar) check() error {
	listed := 0
	for s, i := range c.head {
		prev := int32(-1)
		for ; i >= 0; i = c.next[i] {
			if listed++; listed > len(c.at) {
				return fmt.Errorf("slot %d: list does not end", s)
			}
			b := c.at[i]
			if b < 0 || int(b&calendarMask) != s || c.prev[i] != prev {
				return fmt.Errorf("slot %d: client %d at bucket %d, prev %d (want %d)", s, i, b, c.prev[i], prev)
			}
			if want := max(c.bucket(c.key[i]), c.cursor); b != want {
				return fmt.Errorf("client %d (key %v) at bucket %d, want %d", i, c.key[i], b, want)
			}
			prev = i
		}
	}
	armed := 0
	for _, b := range c.at {
		if b >= 0 {
			armed++
		}
	}
	if armed != listed || armed != c.n {
		return fmt.Errorf("%d clients armed, %d listed, count %d", armed, listed, c.n)
	}
	return nil
}
