//go:build race

package webtier

// raceDetector reports that the tests were built with -race. The model is
// single-goroutine, so the detector finds nothing in the per-tick
// differential grid and slows it about 35×; the grid thins itself instead.
const raceDetector = true
