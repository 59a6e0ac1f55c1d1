package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/dmms"
	"repro/internal/engine"
	"repro/internal/relation"
)

// gateway is one running dmgateway process; its stdout and stderr go to
// the file logPath.
type gateway struct {
	cmd     *exec.Cmd
	logPath string
	base    string
}

// log returns what the process has logged so far.
func (g *gateway) log() string {
	data, _ := os.ReadFile(g.logPath)
	return string(data)
}

// bootGateway starts the binary on a free local port over walDir, with
// epochs run only by POST /epoch, and waits until it answers.
func bootGateway(t *testing.T, bin, walDir string) *gateway {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	logFile, err := os.CreateTemp(t.TempDir(), "dmgateway-*.log")
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	g := &gateway{logPath: logFile.Name(), base: "http://" + addr}
	g.cmd = exec.Command(bin, "-addr", addr, "-wal-dir", walDir, "-epoch", "0", "-batch", "0")
	g.cmd.Stdout, g.cmd.Stderr = logFile, logFile
	if err := g.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if g.cmd.ProcessState == nil {
			_ = g.cmd.Process.Kill()
			_ = g.cmd.Wait()
		}
	})
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if resp, err := http.Get(g.base + "/designs"); err == nil {
			resp.Body.Close()
			return g
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never answered on %s:\n%s", addr, g.log())
		}
	}
}

// call sends one JSON request and decodes the JSON answer into out, failing
// the test on any status but want.
func (g *gateway) call(t *testing.T, method, path string, body, out any, want int) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, g.base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s: HTTP %d (%s), want %d", method, path, resp.StatusCode, data, want)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, data, err)
		}
	}
}

// stop sends SIGTERM and waits for the process to exit.
func (g *gateway) stop(t *testing.T) {
	t.Helper()
	if err := g.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("gateway exited with %v:\n%s", err, g.log())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("gateway did not exit within 30s of SIGTERM:\n%s", g.log())
	}
}

// TestGatewaySmoke builds the binary and drives one sale through it over
// HTTP on a WAL directory: the buyer fetches the mashup by the ticket's
// tx_id, SIGTERM drains to exit 0 with a snapshot on disk, and a reboot of
// the same directory still lists the sale.
func TestGatewaySmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "dmgateway")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	walDir := t.TempDir()
	g := bootGateway(t, bin, walDir)

	rel := relation.New("weather", relation.NewSchema(
		relation.Col("city", relation.KindString), relation.Col("temp", relation.KindFloat)))
	for i := 0; i < 20; i++ {
		rel.MustAppend(relation.String_(fmt.Sprintf("c%d", i)), relation.Float(float64(i)))
	}
	var tk dmms.TicketResp
	g.call(t, "POST", "/async/participants", dmms.ParticipantReq{Name: "alice", Funds: 5000}, nil, http.StatusAccepted)
	g.call(t, "POST", "/async/datasets", dmms.DatasetReq{Seller: "sam", ID: "sam/weather", Relation: rel}, nil, http.StatusAccepted)
	g.call(t, "POST", "/epoch", nil, nil, http.StatusOK)
	g.call(t, "POST", "/async/requests", dmms.RequestReq{
		Buyer: "alice", Columns: []string{"city", "temp"},
		Curve: []dmms.CurvePointSpec{{MinSatisfaction: 0.5, Price: 150}},
	}, &tk, http.StatusAccepted)
	g.call(t, "POST", "/epoch", nil, nil, http.StatusOK)
	var tv dmms.TicketView
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		g.call(t, "GET", "/async/tickets/"+tk.Ticket, nil, &tv, http.StatusOK)
		if (tv.Status != engine.TicketQueued && tv.Status != engine.TicketApplied) || time.Now().After(deadline) {
			break
		}
	}
	if tv.Status != engine.TicketDone || tv.TxID == "" {
		t.Fatalf("request ticket = %+v", tv.Ticket)
	}
	var tx dmms.TxView
	g.call(t, "GET", "/history?tx="+tv.TxID, nil, &tx, http.StatusOK)
	if tx.ID != tv.TxID || tx.Buyer != "alice" || tx.Mashup == nil || tx.Mashup.NumRows() != 20 {
		t.Fatalf("delivered %+v, want alice's 20-row mashup", tx)
	}

	g.stop(t)
	if !strings.Contains(g.log(), "drain snapshot") {
		t.Fatalf("no drain snapshot logged:\n%s", g.log())
	}
	if snaps, _ := filepath.Glob(filepath.Join(walDir, "snapshot-*.json")); len(snaps) == 0 {
		t.Fatalf("no snapshot in %s after the drain", walDir)
	}

	g = bootGateway(t, bin, walDir)
	var book struct {
		Settlements []dmms.SettlementView `json:"settlements"`
		Conserved   bool                  `json:"conserved"`
	}
	g.call(t, "GET", "/settlements", nil, &book, http.StatusOK)
	if !book.Conserved || len(book.Settlements) != 1 || book.Settlements[0].TxID != tv.TxID {
		t.Fatalf("settlements after reboot = %+v, want %s", book, tv.TxID)
	}
	g.stop(t)
}
