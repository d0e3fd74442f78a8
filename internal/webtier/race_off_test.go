//go:build !race

package webtier

const raceDetector = false
