//go:build unix

package hop

import "syscall"

// quiet reports whether a non-blocking read of socket fd would block: the
// peer has neither closed it nor sent a byte.
func quiet(fd uintptr, b []byte) bool {
	n, err := syscall.Read(int(fd), b)
	return n < 0 && err == syscall.EAGAIN
}
