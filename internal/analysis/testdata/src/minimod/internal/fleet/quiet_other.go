//go:build !unix

package fleet

func quiet() bool { return false }
