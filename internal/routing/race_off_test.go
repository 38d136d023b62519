//go:build !race

package routing

// raceDetector reports whether the tests run under the race detector.
const raceDetector = false
