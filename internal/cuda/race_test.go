//go:build race

package cuda_test

func init() { raceEnabled = true }
