//go:build !linux

package main

import "time"

// pacer holds the generator until a request is due, on one runtime timer
// reset per request. Where the runtime's poller waits in whole
// milliseconds, requests leave up to a millisecond late; the run reports
// that as client.lateness_ms.
type pacer struct{ t *time.Timer }

func newPacer() (*pacer, error) {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &pacer{t: t}, nil
}

// sleep returns once d (which must be positive) has passed.
func (p *pacer) sleep(d time.Duration) error {
	p.t.Reset(d)
	<-p.t.C
	return nil
}

func (p *pacer) close() { p.t.Stop() }
