//go:build race

package bench

// raceDetector reports that the tests were built with -race. Full-fidelity
// figure runs are single-goroutine simulations the detector has nothing to
// find in, and it slows them about 35×; tests that need full fidelity skip.
const raceDetector = true
