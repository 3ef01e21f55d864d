//go:build !race

package hop

const raceEnabled = false
