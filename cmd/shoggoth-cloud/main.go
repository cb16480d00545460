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
	"time"

	"shoggoth/internal/cloud"
	"shoggoth/internal/rpc"
	"shoggoth/internal/video"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shoggoth-cloud: ")

	addr := flag.String("addr", ":8700", "listen address")
	profileName := flag.String("profile", video.ProfileDETRAC, "dataset profile the edges stream")
	seed := flag.Uint64("seed", 7, "teacher seed")
	queueCap := flag.Int("queue-cap", 0, "per-replica labeling queue capacity in batches; overflow answers 429 (0 = unbounded)")
	workers := flag.Int("workers", 1, "modeled teacher pipeline workers per replica")
	replicas := flag.Int("replicas", 1, "teacher replicas in the routing tier")
	router := flag.String("router", "", "replica router (round-robin, least-loaded, domain-affinity; empty = round-robin)")
	admitRate := flag.Float64("admit-rate", 0, "token-bucket admission rate in requests/sec (0 = no admission control)")
	admitBurst := flag.Float64("admit-burst", 0, "token-bucket burst capacity in requests (<1 clamps to 1)")
	flag.Parse()

	profile, err := video.ProfileByName(*profileName)
	if err != nil {
		log.Fatal(err)
	}
	if err := cloud.ValidateRouter(*router); err != nil {
		log.Fatal(err)
	}
	srv := rpc.NewServerOpts(profile, *seed, rpc.ServerOptions{
		QueueCap:        *queueCap,
		Workers:         *workers,
		Replicas:        *replicas,
		Router:          *router,
		AdmitRatePerSec: *admitRate,
		AdmitBurst:      *admitBurst,
	})
	log.Printf("serving %s labeling + rate control on %s (%d replica(s), queue cap %d, %d workers)",
		profile.Name, *addr, max(*replicas, 1), *queueCap, *workers)
	if err := newHTTPServer(*addr, srv.Handler()).ListenAndServe(); err != nil {
		log.Fatal(err)
	}
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
