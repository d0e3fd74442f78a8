//go:build race

package httpd

// raceDetector reports that the tests were built with -race, which slows the
// live server too much for a latency-judged gate to see headroom.
const raceDetector = true
