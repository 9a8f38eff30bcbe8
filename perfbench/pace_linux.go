//go:build linux

package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer holds the generator until a request is due. It sleeps on a
// timerfd read through the runtime's network poller. A runtime timer
// would not do: an otherwise idle Go process waits for its next timer in
// an epoll call whose timeout is whole milliseconds, so a request due in
// 1.3 ms would leave at 2 ms. That slop, half a millisecond at the median,
// is a large share of a sub-millisecond read and would be charged to the
// system. A timerfd wakes the same poll call the moment it fires, and the
// goroutine still gives up its processor while it waits.
type pacer struct {
	fd uintptr  // the raw descriptor: os.File.Fd would make f blocking
	f  *os.File // reads park in the network poller
}

const clockMonotonic = 1

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep returns once d (which must be positive) has passed.
func (p *pacer) sleep(d time.Duration) error {
	// struct itimerspec {it_interval, it_value}: fire once, after d.
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	if _, err := p.f.Read(expirations[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (p *pacer) close() { p.f.Close() }
