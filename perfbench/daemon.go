package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// daemon is an in-process serve daemon on a loopback listener, plus
// the one client that talks to it over a single keep-alive connection.
// restart swaps in a fresh serve.Server over the same store directory
// without closing the listener, so the client's connection survives
// and every later submission reaches a server with an empty job table.
type daemon struct {
	dir    string
	srv    *serve.Server
	cur    atomic.Pointer[http.Handler]
	http   *http.Server
	served chan error
	base   string
	client *http.Client
}

// startDaemon starts a serve daemon over the store directory dir.
func startDaemon(dir string) (*daemon, error) {
	srv, err := serve.New(serve.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		shutdownServer(srv)
		return nil, err
	}
	d := &daemon{dir: dir, srv: srv, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	h := srv.Handler()
	d.cur.Store(&h)
	d.http = &http.Server{
		Handler:           http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { (*d.cur.Load()).ServeHTTP(w, r) }),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { d.served <- d.http.Serve(ln) }()
	d.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
	return d, nil
}

// shutdownServer drains a serve.Server; the benchmark's jobs are all
// finished by then, so this only stops its executors.
func shutdownServer(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// restart replaces the serve.Server with a fresh one over the same
// store.
func (d *daemon) restart() error {
	if err := shutdownServer(d.srv); err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{Dir: d.dir})
	if err != nil {
		return err
	}
	d.srv = srv
	h := srv.Handler()
	d.cur.Store(&h)
	return nil
}

// close stops the client, the listener and the server, and waits for
// the serving goroutine to end.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	d.client.CloseIdleConnections()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := shutdownServer(d.srv); err == nil {
		err = serr
	}
	return err
}

// jobTimes is one job's client-side record.
type jobTimes struct {
	id     string
	total  time.Duration // submit to report fully read
	submit time.Duration // POST round trip
	report time.Duration // report GET round trip
	nEvent int           // SSE events received
	cached bool          // the server answered from its store
	text   string        // the report
}

// job submits one spec body, follows the job's SSE stream until its
// terminal event, and fetches the report: one closed-loop request.
func (d *daemon) job(t *tracer, body []byte) (jobTimes, error) {
	var jt jobTimes
	var err error
	start := time.Now()
	var st serve.Status
	jt.submit = t.do("serve.POST /v1/jobs", func() {
		err = d.call(http.MethodPost, "/v1/jobs", body, func(r io.Reader) error {
			return json.NewDecoder(r).Decode(&st)
		})
	})
	if err != nil {
		return jt, err
	}
	jt.id, jt.cached = st.ID, st.Cached
	var last string
	t.do("serve.GET /v1/jobs/{id}/events", func() {
		err = d.call(http.MethodGet, "/v1/jobs/"+st.ID+"/events", nil, func(r io.Reader) error {
			sc := bufio.NewScanner(r)
			for sc.Scan() {
				if typ, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
					jt.nEvent++
					last = typ
				}
			}
			return sc.Err()
		})
	})
	if err != nil {
		return jt, err
	}
	if last != serve.StateDone {
		return jt, fmt.Errorf("job %s: stream ended with %q, want %q", st.ID, last, serve.StateDone)
	}
	jt.report = t.do("serve.GET /v1/jobs/{id}/report", func() {
		err = d.call(http.MethodGet, "/v1/jobs/"+st.ID+"/report", nil, func(r io.Reader) error {
			b, err := io.ReadAll(r)
			jt.text = string(b)
			return err
		})
	})
	jt.total = time.Since(start)
	return jt, err
}

// call makes one request and hands a 2xx body to read; the body is
// drained and closed so the connection is reused.
func (d *daemon) call(method, path string, body []byte, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	err = read(resp.Body)
	io.Copy(io.Discard, resp.Body)
	return err
}
