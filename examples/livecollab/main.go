// Live edge-cloud collaboration over real HTTP: the cloud labeling service
// runs on a loopback listener; the edge loop streams drifting video, samples
// frames at the cloud-commanded rate, uploads them for labeling and
// fine-tunes its student with latent replay — the full Shoggoth protocol as
// an actual distributed system rather than a virtual-time simulation.
//
//	go run ./examples/livecollab
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"net/http"

	"shoggoth/internal/detect"
	"shoggoth/internal/edge"
	"shoggoth/internal/metrics"
	"shoggoth/internal/rpc"
	"shoggoth/internal/video"
)

func main() {
	profile := video.DETRACProfile()

	// Cloud side: real HTTP server on loopback.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: rpc.NewServer(profile, 7).Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	cloudURL := "http://" + ln.Addr().String()
	fmt.Println("cloud labeling service listening on", cloudURL)

	// Edge side: the canonical offline-pretrained student (exactly the
	// model the simulation deploys), a latent-replay trainer seeded like
	// the sim's edge trainers (run seed, stream 4), and the sampler.
	const runSeed = 1
	student := detect.DefaultPretrainedStudent(profile)
	trainer := detect.NewTrainer(student, detect.DefaultTrainerConfig(), rand.New(rand.NewPCG(runSeed, 4)))
	sampler := edge.NewSampler(0.5)
	client := rpc.NewClient(cloudURL, "edge-demo-1")

	stream := video.NewStream(profile, runSeed)
	col := metrics.NewCollector()
	var alphaAcc metrics.Running
	var buffer []video.Frame
	var pending []detect.LabeledRegion
	pendingFrames := 0

	const streamSeconds = 480
	const batchFrames = 40
	frames := int(streamSeconds * profile.FPS)
	fmt.Printf("edge loop: %d s of drifting video (%d frames)\n\n", streamSeconds, frames)

	for i := 0; i < frames; i++ {
		f := stream.Next()

		// Real-time inference on every frame.
		inf := student.Infer(f)
		recordFrame(col, f, inf.Detections)
		for _, c := range inf.Confidences {
			if c >= 0.5 {
				alphaAcc.Add(1)
			} else {
				alphaAcc.Add(0)
			}
		}

		// Sample at the cloud-commanded rate; upload buffers of 20.
		if sampler.Sample(f.Time) {
			buffer = append(buffer, *f)
		}
		if len(buffer) >= 20 {
			resp, err := client.Label(buffer, alphaAcc.Mean(), 0.55)
			if err != nil {
				log.Fatal(err)
			}
			alphaAcc.Reset()
			for j := range buffer {
				pending = append(pending,
					detect.BuildTrainingBatch(&buffer[j], resp.Labels[j], profile.BackgroundClass())...)
			}
			pendingFrames += len(buffer)
			buffer = buffer[:0]
			sampler.SetRate(resp.NewRate)
			fmt.Printf("  t=%5.1fs uploaded 20 frames: φ=%.2f → new rate %.2f fps\n",
				f.Time, resp.PhiMean, resp.NewRate)
		}

		// Train when a batch of labeled frames has accumulated.
		if pendingFrames >= batchFrames {
			stats := trainer.RunSession(pending)
			fmt.Printf("  t=%5.1fs adaptive training session #%d: %d samples, class loss %.3f\n",
				f.Time, stats.Session+1, stats.NewSamples, stats.AvgClassLoss)
			pending = nil
			pendingFrames = 0
		}
	}

	status, err := client.Status()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncloud labeled %d frames for device %s; final rate %.2f fps\n",
		status.FramesLabeled, status.DeviceID, status.Rate)
	fmt.Printf("stream mAP@0.5 with live adaptation: %.1f%% over %d frames\n",
		col.MAP50()*100, col.Frames())
}

func recordFrame(col *metrics.Collector, f *video.Frame, dets []detect.Detection) {
	col.BeginFrame(f.Index, f.Time)
	for _, pr := range f.Proposals {
		if pr.GT != nil {
			col.AddGT(metrics.GT{Frame: f.Index, Class: pr.GT.Class, Box: pr.GT.Box})
		}
	}
	for _, d := range dets {
		col.AddDet(metrics.Det{Frame: f.Index, Class: d.Class, Confidence: d.Confidence, Box: d.Box})
	}
}
