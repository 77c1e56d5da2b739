// Package sse is the benchmark's Server-Sent-Events client for keplerd's
// /v1/events: it timestamps every frame on receipt, notes resume gaps and
// the closing bye, and checks id contiguity.
package sse

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ResumeBacklog is how many of a restarted keplerd's recovered events a
// resuming client asks to have replayed: half of keplerd's default
// -resume-ring, so the whole backlog is still retained.
const ResumeBacklog = 2048

// ResumeAfter is the Last-Event-ID that replays the ResumeBacklog events
// up to and including last.
func ResumeAfter(last uint64) uint64 {
	if last <= ResumeBacklog {
		return 0
	}
	return last - ResumeBacklog
}

// Frame is one received event.
type Frame struct {
	ID     uint64
	Kind   string
	At     time.Time // receipt
	BinEnd time.Time // bin_closed only: the closed bin's end
}

// Client is one /v1/events connection.
type Client struct {
	resp   *http.Response
	opened chan struct{}
	done   chan struct{} // stream ended (bye, EOF or error)

	mu         sync.Mutex
	cond       *sync.Cond
	frames     []Frame
	incomplete bool
	bye        bool
	err        error
}

// Open subscribes to /v1/events, resuming after lastEventID when it is
// non-empty, and returns once the server has committed the stream.
func Open(addr, lastEventID string) (*Client, error) {
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/v1/events", nil)
	if err != nil {
		return nil, err
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	tr := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("/v1/events: status %d", resp.StatusCode)
	}
	c := &Client{resp: resp, opened: make(chan struct{}), done: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	go c.read()
	select {
	case <-c.opened:
		return c, nil
	case <-c.done:
		return nil, fmt.Errorf("/v1/events closed before opening: %v", c.err)
	case <-time.After(10 * time.Second):
		resp.Body.Close()
		return nil, errors.New("/v1/events never opened")
	}
}

func (c *Client) read() {
	defer close(c.done)
	defer func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	}()
	br := bufio.NewReaderSize(c.resp.Body, 64<<10)
	var cur Frame
	var data string
	opened := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			c.mu.Lock()
			if !errors.Is(err, io.EOF) || !c.bye {
				c.err = err
			}
			c.mu.Unlock()
			return
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if cur.Kind == "" && cur.ID == 0 {
				continue
			}
			cur.At = time.Now()
			if cur.Kind == "bin_closed" {
				var v struct {
					Time time.Time `json:"time"`
				}
				if err := json.Unmarshal([]byte(data), &v); err == nil {
					cur.BinEnd = v.Time
				}
			}
			c.mu.Lock()
			if cur.Kind == "bye" {
				c.bye = true
			} else {
				c.frames = append(c.frames, cur)
			}
			c.cond.Broadcast()
			c.mu.Unlock()
			cur, data = Frame{}, ""
		case strings.HasPrefix(line, ":"):
			if strings.Contains(line, "resume incomplete") {
				c.mu.Lock()
				c.incomplete = true
				c.mu.Unlock()
			}
			if !opened {
				opened = true
				close(c.opened)
			}
		case strings.HasPrefix(line, "id: "):
			cur.ID, _ = strconv.ParseUint(line[4:], 10, 64)
		case strings.HasPrefix(line, "event: "):
			cur.Kind = line[7:]
		case strings.HasPrefix(line, "data: "):
			data = line[6:]
		}
	}
}

// WaitID blocks until a frame with id >= want has arrived and returns its
// receipt time.
func (c *Client) WaitID(want uint64, timeout time.Duration) (time.Time, error) {
	timer := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()
	deadline := time.Now().Add(timeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if n := len(c.frames); n > 0 && c.frames[n-1].ID >= want {
			for _, f := range c.frames {
				if f.ID >= want {
					return f.At, nil
				}
			}
		}
		if want == 0 {
			return time.Time{}, nil
		}
		select {
		case <-c.done:
			return time.Time{}, fmt.Errorf("SSE stream ended before event %d: %v", want, c.err)
		default:
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("SSE event %d not received within %v", want, timeout)
		}
		c.cond.Wait()
	}
}

// WaitEnd waits for the stream to finish after the daemon was signalled.
func (c *Client) WaitEnd(timeout time.Duration) {
	select {
	case <-c.done:
	case <-time.After(timeout):
		c.resp.Body.Close()
		<-c.done
	}
}

// Snapshot copies the received frames and flags.
func (c *Client) Snapshot() (frames []Frame, incomplete, bye bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Frame(nil), c.frames...), c.incomplete, c.bye
}

// Gaps counts the event ids missing between first and the received
// frames (ids must run first, first+1, ...), plus duplicates.
func Gaps(frames []Frame, first uint64) int64 {
	var gaps int64
	next := first
	for _, f := range frames {
		switch {
		case f.ID == next:
		case f.ID > next:
			gaps += int64(f.ID - next)
		default:
			gaps++ // repeated or out-of-order id
		}
		next = max(next, f.ID+1)
	}
	return gaps
}
