package obs

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// Interrupt installs the graceful-shutdown handler the long-running
// commands share and returns the channel it closes. The first SIGINT or
// SIGTERM prints "<tool>: <signal>: <msg> (send again to kill)" to
// stderr and closes the channel; the handler then steps aside, so a
// second signal kills the process with the default disposition. Until
// that first signal the handler stays installed for the life of the
// process: a signal that lands after the run finished — while the
// report prints, a drain lingers, or the ledger record is written —
// still shuts the command down on its own terms.
func Interrupt(tool, msg string) <-chan struct{} {
	interrupt := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "%s: %v: %s (send again to kill)\n", tool, sig, msg)
		signal.Stop(sigc)
		close(interrupt)
	}()
	return interrupt
}
