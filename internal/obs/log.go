package obs

import (
	"fmt"
	"io"
	"log/slog"
)

// NewLogger builds the shared structured logger for a daemon: format is
// "text" (default) or "json", and component is attached to every line
// so multi-node logs (the spotload drill runs four nodes in one
// process) stay attributable.
func NewLogger(w io.Writer, format, component string) (*slog.Logger, error) {
	var h slog.Handler
	switch format {
	case "", "text":
		h = slog.NewTextHandler(w, nil)
	case "json":
		h = slog.NewJSONHandler(w, nil)
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
	return slog.New(h).With("component", component), nil
}
