// Serving-layer demo: the full production shape in one process. A
// talus.Store (keyed Get/Set over the adaptive runtime) is mounted on a
// real HTTP listener, and a client drives it the way a service would:
// two tenants with different reuse patterns, watched by the control
// loop, with the traffic recorded and replayed offline afterwards.
//
// The tenants recreate the paper's cliff scenario over HTTP at demo
// scale: "scanner" cycles through 0.375 MB of keys (an LRU miss-curve
// cliff just below the 0.5 MB cache), "reuser" hammers a 0.19 MB
// working set at random. A fair split would starve the scanner on
// every request; the adaptive loop measures both curves from the live
// HTTP traffic, convexifies them, and lands the scanner on its hull.
//
// Run with:
//
//	go run ./examples/serve
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"talus"
	"talus/internal/sim"
)

const (
	scanKeys = 6144 // 0.375 MB of 64-byte lines, one key per line
	randKeys = 3072 // 0.19 MB working set
	rounds   = 12   // scanner passes over its key space
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Server side: a 0.5 MB store for exactly these two tenants, with
	// the epoch driven by access count (the demo outruns any wall clock).
	st, err := talus.NewStore(
		talus.WithCapacityMB(0.5),
		talus.WithShards(4),
		talus.WithStaticTenants("scanner", "reuser"),
		talus.WithAdaptive(talus.AdaptiveConfig{EpochAccesses: 1 << 14, Seed: 42}),
	)
	if err != nil {
		return err
	}
	defer st.Close()

	recordDir, err := os.MkdirTemp("", "talus-serve-demo")
	if err != nil {
		return err
	}
	defer os.RemoveAll(recordDir)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: talus.NewServeHandler(st, talus.ServeConfig{RecordDir: recordDir})}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n", base)

	// Capture everything the front-end sees as a replayable trace
	// (clients name a bare file; the server keeps it in -record-dir).
	tracePath := filepath.Join(recordDir, "demo.trc")
	post(base+"/v1/record", `{"action":"start","path":"demo.trc","gzip":true}`, nil)

	// Client side: interleave a scanning tenant against a reusing one.
	client := &http.Client{}
	value := []byte("the cached bytes")
	var randState uint64 = 1
	for i := 0; i < rounds*scanKeys; i++ {
		do(client, base, "scanner", uint64(i%scanKeys), value)
		randState = randState*6364136223846793005 + 1442695040888963407
		do(client, base, "reuser", (randState>>33)%randKeys, value)
	}

	var rec struct {
		Records int64 `json:"records"`
	}
	post(base+"/v1/record", `{"action":"stop"}`, &rec)

	// What did the control loop decide? Ask the service itself.
	for _, ts := range st.StatsAll() {
		fmt.Printf("tenant %-8s partition %d: %7d gets, hit ratio %.3f, allocation %.3f MB\n",
			ts.Tenant, ts.Partition, ts.Gets, ts.HitRatio, talus.LinesToMB(float64(ts.AllocLines)))
	}
	fmt.Printf("epochs: %d, recorded %d accesses\n\n", st.Cache().Epochs(), rec.Records)

	// Close the loop: the recorded front-end traffic replays offline
	// through the adaptive simulator, tenant names intact.
	res, err := sim.RunAdaptiveTraceFile(sim.AdaptiveConfig{
		CapacityLines: int64(talus.MBToLines(0.5)),
		EpochAccesses: 1 << 14,
		Seed:          42,
	}, tracePath)
	if err != nil {
		return fmt.Errorf("replaying recorded traffic: %w", err)
	}
	fmt.Println("offline replay of the recorded traffic:")
	for i, name := range res.Apps {
		fmt.Printf("tenant %-8s miss ratio %.3f, allocation %.3f MB\n",
			name, res.MissRatio[i], talus.LinesToMB(float64(res.Allocs[i])))
	}
	return nil
}

// do issues one GET; a cold key 404s — the miss a backend fetch would
// absorb — and the client PUTs the value in, exactly a look-aside
// cache's fill path.
func do(client *http.Client, base, tenant string, key uint64, value []byte) {
	url := fmt.Sprintf("%s/v1/cache/%s/k%d", base, tenant, key)
	resp, err := client.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		req, _ := http.NewRequest(http.MethodPut, url, bytes.NewReader(value))
		putResp, err := client.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, putResp.Body)
		putResp.Body.Close()
	}
}

// post sends a JSON body, fails loudly on a non-2xx response (a record
// request that silently failed would corrupt the rest of the demo), and
// decodes the response into out when non-nil.
func post(url, body string, out any) {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: %d %s", url, resp.StatusCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			log.Fatalf("POST %s: decoding %q: %v", url, raw, err)
		}
	}
}
