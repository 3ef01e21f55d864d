//go:build !race

package edgecloud

const raceEnabled = false
