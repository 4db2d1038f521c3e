package main

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"io"
	"math/big"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"casper"
	"casper/internal/config"
	"casper/internal/trace"
)

// testServer returns an unstarted protocol server for reloader tests:
// apply only touches atomic knobs, so serving is unnecessary.
func testServer() *casper.ProtocolServer {
	return casper.NewProtocolServer(casper.MustNew(casper.DefaultConfig()))
}

// saveSampleEvery isolates tests from the process-global trace
// sampling knob the reloader writes.
func saveSampleEvery(t *testing.T) {
	t.Helper()
	old := trace.SampleEvery()
	t.Cleanup(func() { trace.SetSampleEvery(old) })
}

// flagDefaults returns the settings casperd runs with when no flag
// names them.
func flagDefaults() config.Settings {
	o, err := parseFlags(nil)
	if err != nil {
		panic(err)
	}
	return o.settings
}

// baseSettings is a flag baseline for reloader tests: the casperd
// defaults with a few knobs moved off them.
func baseSettings() config.Settings {
	s := flagDefaults()
	s.SlowQuery = config.Duration(100 * time.Millisecond)
	s.TraceSample = 1
	s.RateLimitBurst = 1
	return s
}

func TestOverlay(t *testing.T) {
	base := baseSettings()
	if got, err := config.Parse([]byte(`{}`), base); err != nil || got != base {
		t.Fatalf("Parse({}, base) = %+v, %v; want the baseline", got, err)
	}

	got, err := config.Parse([]byte(`{"slow_query": "5ms", "rate_limit_rps": 50, "rate_limit_burst": 75}`), base)
	if err != nil {
		t.Fatal(err)
	}
	if got.SlowQuery != config.Duration(5*time.Millisecond) || got.RateLimitRPS != 50 || got.RateLimitBurst != 75 {
		t.Fatalf("overlay applied = %+v", got)
	}
	// Keys absent from the file keep their flag-derived values.
	if got.TraceSample != base.TraceSample || got.MaxConcurrent != base.MaxConcurrent || got.DrainDeadline != base.DrainDeadline {
		t.Fatalf("overlay disturbed absent keys: %+v", got)
	}
}

func TestReloaderApplyAndReload(t *testing.T) {
	saveSampleEvery(t)
	srv := testServer()
	dir := t.TempDir()
	path := filepath.Join(dir, "casper.json")
	write := func(s string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write(`{"slow_query": "5ms", "trace_sample": 8, "rate_limit_rps": 50, "max_concurrent": 32, "drain_deadline": "3s"}`)
	rel, err := newReloader(srv, baseSettings(), path)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.SlowQuery(); got != 5*time.Millisecond {
		t.Fatalf("SlowQuery = %v; want the file's 5ms over the baseline", got)
	}
	if rps, _ := srv.RateLimit(); rps != 50 {
		t.Fatalf("RateLimit rps = %v; want 50", rps)
	}
	if got := srv.MaxConcurrent(); got != 32 {
		t.Fatalf("MaxConcurrent = %d; want 32", got)
	}
	if got := trace.SampleEvery(); got != 8 {
		t.Fatalf("trace.SampleEvery = %d; want 8", got)
	}
	if got := rel.drainDeadline(); got != 3*time.Second {
		t.Fatalf("drainDeadline = %v; want 3s", got)
	}

	// A successful reload applies the new file over the same baseline.
	write(`{"slow_query": "20ms", "drain_deadline": "7s"}`)
	if err := rel.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := srv.SlowQuery(); got != 20*time.Millisecond {
		t.Fatalf("SlowQuery after reload = %v; want 20ms", got)
	}
	if got := rel.drainDeadline(); got != 7*time.Second {
		t.Fatalf("drainDeadline after reload = %v; want 7s", got)
	}
	// rate_limit_rps dropped out of the file: back to the baseline (off).
	if rps, _ := srv.RateLimit(); rps != 0 {
		t.Fatalf("RateLimit rps after key removal = %v; want baseline 0", rps)
	}

	// A rejected file reports the error and changes nothing.
	errBefore := configReloads.With("error").Value()
	write(`{"slow_query": "not a duration"}`)
	if err := rel.Reload(); err == nil {
		t.Fatal("Reload accepted a malformed file")
	}
	if got := srv.SlowQuery(); got != 20*time.Millisecond {
		t.Fatalf("SlowQuery after rejected reload = %v; want the previous 20ms", got)
	}
	if got := configReloads.With("error").Value() - errBefore; got != 1 {
		t.Fatalf("casper_config_reloads_total{result=error} rose by %d; want 1", got)
	}
}

func TestReloaderWithoutConfigFile(t *testing.T) {
	saveSampleEvery(t)
	srv := testServer()
	base := baseSettings()
	rel, err := newReloader(srv, base, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.SlowQuery(); got != time.Duration(base.SlowQuery) {
		t.Fatalf("SlowQuery = %v; want the flag baseline %v", got, base.SlowQuery)
	}
	if got := rel.drainDeadline(); got != time.Duration(base.DrainDeadline) {
		t.Fatalf("drainDeadline = %v; want %v", got, base.DrainDeadline)
	}
	if err := rel.Reload(); err == nil {
		t.Fatal("Reload without a -config file succeeded; want an error")
	}
}

func TestReloaderRejectsBadInitialFile(t *testing.T) {
	saveSampleEvery(t)
	path := filepath.Join(t.TempDir(), "casper.json")
	if err := os.WriteFile(path, []byte(`{"max_concurrent": -1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// At startup a bad file is fatal, not silently ignored: the operator
	// asked for configuration that cannot be honored.
	if _, err := newReloader(testServer(), baseSettings(), path); err == nil {
		t.Fatal("newReloader accepted an invalid initial config file")
	}
}

func TestReloadEndpoint(t *testing.T) {
	saveSampleEvery(t)
	srv := testServer()
	dir := t.TempDir()
	path := filepath.Join(dir, "casper.json")
	if err := os.WriteFile(path, []byte(`{"trace_sample": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rel, err := newReloader(srv, baseSettings(), path)
	if err != nil {
		t.Fatal(err)
	}

	addr, stop, err := startDebugServer("127.0.0.1:0", nil, nil, rel.Reload)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr.String() + "/-/reload"

	// GET is refused; reloads must be deliberate.
	resp, err := http.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /-/reload: %s; want 405", resp.Status)
	}

	// POST applies the file.
	if err := os.WriteFile(path, []byte(`{"trace_sample": 5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("POST /-/reload: %s %q", resp.Status, body)
	}
	if got := trace.SampleEvery(); got != 5 {
		t.Fatalf("trace.SampleEvery after endpoint reload = %d; want 5", got)
	}

	// A bad file surfaces the parse error in the 500 body.
	if err := os.WriteFile(path, []byte(`{"trace_sample": -1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("POST with bad file: %s; want 500", resp.Status)
	}
	if !strings.Contains(string(body), "trace_sample") {
		t.Fatalf("500 body %q does not name the offending key", body)
	}

	// Without a -config file the endpoint does not exist.
	addr2, stop2, err := startDebugServer("127.0.0.1:0", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	resp, err = http.Post("http://"+addr2.String()+"/-/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /-/reload without -config: %s; want 404", resp.Status)
	}
}

// writeTestCertPair mints a self-signed certificate and writes the
// PEM-encoded cert and key files buildTLSConfig expects.
func writeTestCertPair(t *testing.T, dir string) (certFile, keyFile string) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "casperd-test"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	certFile = filepath.Join(dir, "cert.pem")
	keyFile = filepath.Join(dir, "key.pem")
	certPEM := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
	keyPEM := pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER})
	if err := os.WriteFile(certFile, certPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyFile, keyPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	return certFile, keyFile
}

func TestBuildTLSConfig(t *testing.T) {
	dir := t.TempDir()
	certFile, keyFile := writeTestCertPair(t, dir)

	cfg, err := buildTLSConfig(certFile, keyFile, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Certificates) != 1 || cfg.ClientAuth != tls.NoClientCert {
		t.Fatalf("server-only config = certs %d, clientAuth %v", len(cfg.Certificates), cfg.ClientAuth)
	}
	if cfg.MinVersion != tls.VersionTLS12 {
		t.Fatalf("MinVersion = %x; want TLS 1.2", cfg.MinVersion)
	}

	// The client-CA file flips on mutual TLS.
	cfg, err = buildTLSConfig(certFile, keyFile, certFile)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ClientAuth != tls.RequireAndVerifyClientCert || cfg.ClientCAs == nil {
		t.Fatalf("mTLS config = clientAuth %v, pool %v", cfg.ClientAuth, cfg.ClientCAs)
	}

	// Failure cases name the problem.
	if _, err := buildTLSConfig(filepath.Join(dir, "no.pem"), keyFile, ""); err == nil {
		t.Fatal("missing cert file accepted")
	}
	if _, err := buildTLSConfig(certFile, keyFile, filepath.Join(dir, "no-ca.pem")); err == nil {
		t.Fatal("missing client CA file accepted")
	}
	empty := filepath.Join(dir, "empty.pem")
	if err := os.WriteFile(empty, []byte("not pem\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := buildTLSConfig(certFile, keyFile, empty); err == nil || !strings.Contains(err.Error(), "no certificates") {
		t.Fatalf("certless CA file error = %v; want 'no certificates'", err)
	}
}

func TestOverlayBackendKeys(t *testing.T) {
	base := baseSettings()
	got, err := config.Parse([]byte(`{"backend": "cluster", "backend_epsilon": 0.5, "backend_min_k": 4}`), base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Backend != "cluster" || got.BackendEpsilon != 0.5 || got.BackendMinK != 4 {
		t.Fatalf("overlay applied = %+v", got)
	}
	// Absent backend keys keep the baseline's values.
	got, err = config.Parse([]byte(`{"trace_sample": 2}`), base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Backend != base.Backend || got.BackendEpsilon != base.BackendEpsilon || got.BackendMinK != base.BackendMinK {
		t.Fatalf("overlay invented backend settings: %+v", got)
	}
}

func TestReloaderBackendSwap(t *testing.T) {
	saveSampleEvery(t)
	srv := testServer()
	dir := t.TempDir()
	path := filepath.Join(dir, "casper.json")
	write := func(s string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The initial file selects a non-default backend.
	write(`{"backend": "cluster", "backend_min_k": 3}`)
	rel, err := newReloader(srv, baseSettings(), path)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Casper().Backend(); got != "cluster" {
		t.Fatalf("backend after startup config = %q; want cluster", got)
	}

	// Hot swap to geoind with a knob.
	write(`{"backend": "geoind", "backend_epsilon": 0.2}`)
	if err := rel.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Casper().Backend(); got != "geoind" {
		t.Fatalf("backend after reload = %q; want geoind", got)
	}

	// An unregistered name is rejected at parse time and the server
	// keeps serving on the current backend.
	write(`{"backend": "onion"}`)
	if err := rel.Reload(); err == nil {
		t.Fatal("Reload accepted an unregistered backend")
	}
	if got := srv.Casper().Backend(); got != "geoind" {
		t.Fatalf("backend after rejected reload = %q; want geoind", got)
	}

	// Dropping the backend keys from the file restores the flag's
	// backend, like every other absent key.
	write(`{"trace_sample": 3}`)
	if err := rel.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Casper().Backend(); got != baseSettings().Backend {
		t.Fatalf("backend after key removal = %q; want the flag's %q", got, baseSettings().Backend)
	}
}
