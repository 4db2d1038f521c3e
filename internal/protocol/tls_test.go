// tls_test.go covers the front door's transport security matrix with
// certificates minted in-test: plain TLS, mutual TLS with a good
// client certificate, and the two rejection cases (wrong CA, no
// certificate at all). TLS 1.3 delivers client-certificate rejection
// in a post-handshake alert, so the failure cases accept an error at
// dial time or on the first RPC — either way, no request is served.
package protocol

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"net"
	"testing"
	"time"

	"casper/internal/core"
	"casper/internal/geom"
)

// testCA is a throwaway certificate authority plus helpers to issue
// leaf certificates signed by it.
type testCA struct {
	cert *x509.Certificate
	key  *ecdsa.PrivateKey
	pool *x509.CertPool
}

func newTestCA(t *testing.T, name string) *testCA {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: name},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(cert)
	return &testCA{cert: cert, key: key, pool: pool}
}

// issue mints a leaf certificate signed by the CA. Server leaves carry
// the loopback IP SAN so clients can verify a 127.0.0.1 dial.
func (ca *testCA) issue(t *testing.T, cn string, server bool) tls.Certificate {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	usage := x509.ExtKeyUsageClientAuth
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(time.Now().UnixNano()),
		Subject:      pkix.Name{CommonName: cn},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
	}
	if server {
		usage = x509.ExtKeyUsageServerAuth
		tmpl.IPAddresses = []net.IP{net.ParseIP("127.0.0.1")}
	}
	tmpl.ExtKeyUsage = []x509.ExtKeyUsage{usage}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, &key.PublicKey, ca.key)
	if err != nil {
		t.Fatal(err)
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}
}

// startTLSServer serves a small world behind the given TLS config.
func startTLSServer(t *testing.T, tlsCfg *tls.Config) string {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Universe = geom.R(0, 0, 4096, 4096)
	cfg.PyramidLevels = 7
	srv := NewServer(core.MustNew(cfg))
	srv.SetLogger(quietLogger())
	srv.TLSConfig = tlsCfg
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String()
}

// expectRejected asserts that the client config cannot complete a
// served RPC against addr — failing at the TLS handshake or on the
// first request both count.
func expectRejected(t *testing.T, addr string, cfg *tls.Config, why string) {
	t.Helper()
	cl, err := DialContext(ctx, addr, WithTLSConfig(cfg), WithDialTimeout(5*time.Second))
	if err != nil {
		return // rejected at the handshake: fine
	}
	defer cl.Close()
	if err := cl.Register(ctx, 99, 100, 100, 1, 0); err == nil {
		t.Fatalf("%s: request served; want rejection", why)
	}
}

func TestTLS(t *testing.T) {
	serverCA := newTestCA(t, "casper-test-server-ca")
	serverCert := serverCA.issue(t, "casperd", true)

	t.Run("server_auth_only", func(t *testing.T) {
		addr := startTLSServer(t, &tls.Config{
			Certificates: []tls.Certificate{serverCert},
			MinVersion:   tls.VersionTLS12,
		})

		// A trusting client works; the ServerName is derived from the
		// dialed address.
		cl := dial(t, addr, WithTLSConfig(&tls.Config{RootCAs: serverCA.pool}))
		if err := cl.Register(ctx, 1, 100, 100, 1, 0); err != nil {
			t.Fatalf("rpc over TLS: %v", err)
		}
		if err := cl.Update(ctx, 1, 200, 200); err != nil {
			t.Fatalf("second rpc over TLS: %v", err)
		}

		// A client that does not trust the CA must refuse the server.
		expectRejected(t, addr, &tls.Config{RootCAs: x509.NewCertPool()}, "untrusting client")

		// A plaintext client against the TLS port gets no service.
		if cl, err := DialContext(ctx, addr, WithDialTimeout(2*time.Second)); err == nil {
			cl.Close()
			t.Fatal("plaintext dial against TLS port succeeded")
		}
	})

	t.Run("mutual_tls", func(t *testing.T) {
		clientCA := newTestCA(t, "casper-test-client-ca")
		addr := startTLSServer(t, &tls.Config{
			Certificates: []tls.Certificate{serverCert},
			MinVersion:   tls.VersionTLS12,
			ClientCAs:    clientCA.pool,
			ClientAuth:   tls.RequireAndVerifyClientCert,
		})

		// The CA-signed client certificate is admitted.
		good := clientCA.issue(t, "good-client", false)
		cl, err := DialContext(ctx, addr, WithTLSConfig(&tls.Config{
			RootCAs:      serverCA.pool,
			Certificates: []tls.Certificate{good},
		}))
		if err != nil {
			t.Fatalf("dial with CA-signed client cert: %v", err)
		}
		defer cl.Close()
		if err := cl.Register(ctx, 1, 100, 100, 1, 0); err != nil {
			t.Fatalf("rpc over mutual TLS: %v", err)
		}

		// A certificate from the wrong CA is rejected.
		rogueCA := newTestCA(t, "casper-test-rogue-ca")
		bad := rogueCA.issue(t, "bad-client", false)
		expectRejected(t, addr, &tls.Config{
			RootCAs:      serverCA.pool,
			Certificates: []tls.Certificate{bad},
		}, "wrong-CA client cert")

		// No certificate at all is rejected.
		expectRejected(t, addr, &tls.Config{RootCAs: serverCA.pool}, "missing client cert")
	})
}
