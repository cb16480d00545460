// Command shoggoth-cloud runs the cloud half of the Shoggoth protocol as a
// real HTTP service: online labeling by the shared teacher model plus the
// per-device sampling-rate controller. Pair it with cmd/shoggoth-edge.
//
//	shoggoth-cloud -addr :8700 -profile ua-detrac
//
// The listener gives a client readHeaderTimeout to finish its request
// headers and closes a keep-alive connection idle for idleTimeout, so a peer
// that connects and goes quiet cannot hold a goroutine and a socket for
// good. It sets no deadline on reading a body: a 16 MB upload over a slow
// uplink is legitimate, and rpc.MaxLabelRequestBytes already bounds it.
package main

import (
	"flag"
	"log"
	"net/http"
	"os"
	"time"

	"shoggoth/internal/rpc"
	"shoggoth/internal/video"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shoggoth-cloud: ")
	hs, err := newServer(flag.NewFlagSet(os.Args[0], flag.ExitOnError), os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if err := hs.ListenAndServe(); err != nil {
		log.Fatal(err)
	}
}

// newServer parses the command line into a configured HTTP server. It
// validates the tier the flags describe and returns an error for a bad
// one; nothing listens until the caller says so.
func newServer(fs *flag.FlagSet, args []string) (*http.Server, error) {
	addr := fs.String("addr", ":8700", "listen address")
	profileName := fs.String("profile", video.ProfileDETRAC, "dataset profile the edges stream")
	seed := fs.Uint64("seed", 7, "teacher seed")
	queueCap := fs.Int("queue-cap", 0, "per-replica labeling queue capacity in batches; overflow answers 429 (0 = unbounded)")
	workers := fs.Int("workers", 1, "modeled teacher pipeline workers per replica")
	replicas := fs.Int("replicas", 1, "teacher replicas in the routing tier")
	router := fs.String("router", "", "replica router (round-robin, least-loaded, domain-affinity; empty = round-robin)")
	admitRate := fs.Float64("admit-rate", 0, "token-bucket admission rate in requests/sec (0 = no admission control)")
	admitBurst := fs.Float64("admit-burst", 0, "token-bucket burst capacity in requests (<1 clamps to 1)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	profile, err := video.ProfileByName(*profileName)
	if err != nil {
		return nil, err
	}
	opts := rpc.ServerOptions{
		QueueCap:        *queueCap,
		Workers:         *workers,
		Replicas:        *replicas,
		Router:          *router,
		AdmitRatePerSec: *admitRate,
		AdmitBurst:      *admitBurst,
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	srv := rpc.NewServerOpts(profile, *seed, opts)
	tc := opts.TierConfig().Resolved()
	log.Printf("serving %s labeling + rate control on %s (%d replica(s), router %s, queue cap %d, %d workers)",
		profile.Name, *addr, tc.Replicas, tc.Router, tc.Service.QueueCap, tc.Service.Workers)
	return newHTTPServer(*addr, srv.Handler()), nil
}

const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the listener's configuration: deadlines on headers and
// on idle keep-alive connections, none on bodies.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
