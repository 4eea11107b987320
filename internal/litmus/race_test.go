//go:build race

package litmus

func init() { raceDetector = true }
