//go:build race

package verif

func init() { raceDetector = true }
