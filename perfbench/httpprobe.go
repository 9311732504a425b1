package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"time"
)

const (
	// httpRequests POST+GET pairs are sent at one pair per httpEvery.
	httpRequests = 100
	httpEvery    = 20 * time.Millisecond
	// serveStartup bounds how long nlfl serve may take to print its
	// address; serveStop bounds its drain after SIGINT.
	serveStartup = 30 * time.Second
	serveStop    = 10 * time.Second
)

// probeHTTP starts `nlfl serve` unthrottled on a free local port, sends
// POST /jobs and GET /jobs?id= pairs at a low fixed rate over one
// connection, and stops the server with SIGINT.
func probeHTTP(bin string, seed int64) (outcome, error) {
	var o outcome
	cmd := exec.Command(bin, "serve", "-rate", "1e15", "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return o, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return o, fmt.Errorf("start nlfl serve: %w", err)
	}
	exited := make(chan error, 1)
	addrc := make(chan string, 1)
	go func() {
		// Read the banner for the address, then drain stdout so the
		// server never blocks on a full pipe; Wait runs after EOF.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), " on http://"); ok {
				select {
				case addrc <- rest:
				default:
				}
			}
		}
		exited <- cmd.Wait()
	}()
	stop := func() error {
		_ = cmd.Process.Signal(os.Interrupt)
		select {
		case err := <-exited:
			return err
		case <-time.After(serveStop):
			_ = cmd.Process.Kill()
			<-exited
			return fmt.Errorf("nlfl serve did not stop within %v of SIGINT", serveStop)
		}
	}
	var addr string
	select {
	case addr = <-addrc:
	case err := <-exited:
		return o, fmt.Errorf("nlfl serve exited before listening: %v", err)
	case <-time.After(serveStartup):
		_ = stop()
		return o, fmt.Errorf("nlfl serve printed no address within %v", serveStartup)
	}

	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	base := "http://" + addr + "/jobs"
	var submitMs, statusMs []float64
	rejected := 0
	tick := time.NewTicker(httpEvery)
	for i := 0; i < httpRequests; i++ {
		<-tick.C
		o.attempted++
		body := fmt.Sprintf(`{"tenant":"http","n":%d,"strategy":%q,"seed":%d}`,
			smallSizes[i%len(smallSizes)], fleetStrategies[i%len(fleetStrategies)], seed+int64(i))
		t := time.Now()
		code, raw, err := roundTrip(client, http.MethodPost, base, body)
		submitMs = append(submitMs, ms(time.Since(t)))
		if code == http.StatusTooManyRequests {
			rejected++
		}
		var sub struct {
			ID int64 `json:"id"`
		}
		if err == nil && code == http.StatusAccepted {
			err = json.Unmarshal(raw, &sub)
		} else if err == nil {
			err = fmt.Errorf("POST /jobs: status %d", code)
		}
		if err != nil {
			o.failed++
			o.notes = append(o.notes, "failed: "+err.Error())
			continue
		}
		t = time.Now()
		code, _, err = roundTrip(client, http.MethodGet, fmt.Sprintf("%s?id=%d", base, sub.ID), "")
		statusMs = append(statusMs, ms(time.Since(t)))
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET /jobs: status %d", code)
		}
		if err != nil {
			o.failed++
			o.notes = append(o.notes, "failed: "+err.Error())
		}
	}
	tick.Stop()
	tr.CloseIdleConnections()
	if err := stop(); err != nil {
		return o, fmt.Errorf("stop nlfl serve: %w", err)
	}
	sub := summarize(submitMs)
	o.layers = []metric{
		{"http.submit_ms.p50", "ms", sub.P50},
		{"http.submit_ms.tail", "ms", sub.Tail},
		{"http.status_ms.p50", "ms", summarize(statusMs).P50},
		{"http.rejected_frac", "ratio", float64(rejected) / float64(max(o.attempted, 1))},
	}
	o.notes = append(o.notes, fmt.Sprintf("submit_ms: %v", sub), fmt.Sprintf("status_ms: %v", summarize(statusMs)))
	return o, nil
}

// roundTrip sends one request and reads the whole body, so the
// connection is reused.
func roundTrip(c *http.Client, method, url, body string) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewBufferString(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}
