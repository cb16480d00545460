// Command shoggoth-edge runs the edge half of the Shoggoth protocol against
// a shoggoth-cloud server: real-time inference over a drifting synthetic
// stream, adaptive frame sampling at the cloud-commanded rate, and
// latent-replay fine-tuning on the labels the cloud returns.
//
//	shoggoth-edge -cloud http://localhost:8700 -profile ua-detrac -duration 480
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"time"

	"shoggoth/internal/detect"
	"shoggoth/internal/edge"
	"shoggoth/internal/metrics"
	"shoggoth/internal/rpc"
	"shoggoth/internal/video"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shoggoth-edge: ")

	cloudURL := flag.String("cloud", "http://localhost:8700", "cloud server base URL")
	profileName := flag.String("profile", video.ProfileDETRAC, "dataset profile to stream")
	device := flag.String("device", "edge-1", "device id")
	duration := flag.Float64("duration", 480, "stream seconds to process")
	seed := flag.Uint64("seed", 1, "stream seed")
	batchFrames := flag.Int("batch", 40, "labeled frames per training session")
	flag.Parse()

	profile, err := video.ProfileByName(*profileName)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("pretraining student for %s…", profile.Name)
	// The canonical offline pretraining path: a live edge deploys exactly
	// the model the simulation's deployments start from. The trainer gets
	// the same seed stream the sim's edge trainers use (run seed, stream 4).
	student := detect.DefaultPretrainedStudent(profile)
	trainer := detect.NewTrainer(student, detect.DefaultTrainerConfig(), rand.New(rand.NewPCG(*seed, 4)))
	sampler := edge.NewSampler(0.5)
	client := rpc.NewClient(*cloudURL, *device)

	stream := video.NewStream(profile, *seed)
	col := metrics.NewCollector()
	var alphaAcc metrics.Running
	var buffer []video.Frame
	var pending []detect.LabeledRegion
	pendingFrames, sessions := 0, 0

	frames := int(*duration * profile.FPS)
	// Backpressure deadline in WALL time: the cloud's queue drains in real
	// seconds (its service model runs on time.Since(start)), while this loop
	// burns through stream time much faster than wall time — a stream-time
	// pause would retry into a still-full queue.
	var retryUntil time.Time
	dropped := 0 // samples aged out of the buffer while paused
	log.Printf("streaming %d frames to %s as %q", frames, *cloudURL, *device)
	for i := 0; i < frames; i++ {
		f := stream.Next()
		inf := student.Infer(f)
		col.BeginFrame(f.Index, f.Time)
		for _, pr := range f.Proposals {
			if pr.GT != nil {
				col.AddGT(metrics.GT{Frame: f.Index, Class: pr.GT.Class, Box: pr.GT.Box})
			}
		}
		for _, d := range inf.Detections {
			col.AddDet(metrics.Det{Frame: f.Index, Class: d.Class, Confidence: d.Confidence, Box: d.Box})
		}
		for _, c := range inf.Confidences {
			if c >= 0.5 {
				alphaAcc.Add(1)
			} else {
				alphaAcc.Add(0)
			}
		}

		if sampler.Sample(f.Time) {
			buffer = append(buffer, *f)
			// Under sustained backpressure the buffer must not grow without
			// bound, and the eventual retry must not be one giant batch
			// whose modeled service time re-overloads the queue: keep only
			// the freshest 60 samples (3 uploads' worth), dropping the
			// oldest — stale frames carry the least adaptation value anyway.
			if len(buffer) > 60 {
				dropped += len(buffer) - 60
				buffer = buffer[len(buffer)-60:]
			}
		}
		if len(buffer) >= 20 && !time.Now().Before(retryUntil) {
			resp, err := client.Label(buffer, alphaAcc.Mean(), 0.55)
			var bp *rpc.BackpressureError
			if errors.As(err, &bp) {
				// The cloud's labeling queue is full: keep the buffer and
				// honour the Retry-After hint before attempting again —
				// backpressure is load, not failure, and re-sending every
				// frame would only feed the overload.
				wait := bp.RetryAfter
				if wait < time.Second {
					wait = time.Second
				}
				retryUntil = time.Now().Add(wait)
				log.Printf("t=%5.1fs cloud backpressure, pausing uploads %v", f.Time, wait)
				continue
			}
			if err != nil {
				log.Fatal(err)
			}
			alphaAcc.Reset()
			for j := range buffer {
				pending = append(pending,
					detect.BuildTrainingBatch(&buffer[j], resp.Labels[j], profile.BackgroundClass())...)
			}
			uploaded := len(buffer)
			pendingFrames += uploaded
			buffer = buffer[:0]
			sampler.SetRate(resp.NewRate)
			log.Printf("t=%5.1fs labeled %d frames, φ=%.2f, rate → %.2f fps", f.Time, uploaded, resp.PhiMean, resp.NewRate)
		}
		if pendingFrames >= *batchFrames {
			stats := trainer.RunSession(pending)
			sessions++
			log.Printf("t=%5.1fs training session %d: %d samples, loss %.3f",
				f.Time, sessions, stats.NewSamples, stats.AvgClassLoss)
			pending = nil
			pendingFrames = 0
		}
	}

	if dropped > 0 {
		log.Printf("dropped %d stale samples while the cloud was backpressured", dropped)
	}
	fmt.Printf("device %s: mAP@0.5 %.1f%% over %d frames, %d sessions\n",
		*device, col.MAP50()*100, col.Frames(), sessions)
}
