//go:build !race

package httpd

// raceDetector reports that the tests were built with -race.
const raceDetector = false
