// Package wire is the one connection layer under every network daemon
// in the repo: the webmail front end the miscreants log into (§3.1),
// the sinkhole SMTP server that swallows their outgoing mail (§3.1,
// §3.4), the sharded fleet's router and the C3 lookup service.
//
// Server owns the listener, the registry of live connections and the
// shutdown paths (Close, Drain); a daemon hands it one function that
// serves a connection and keeps only its per-frame handler. Conn
// carries the per-connection state that shutdown and hostile clients
// need:
//
//   - the drain state: Begin and End bracket each request, so Drain
//     can drop an idle connection at once and let a busy one finish
//     writing its in-flight response;
//   - the frame bound: every read goes through a budget of MaxFrame
//     bytes that End refills, so no client can grow server memory by
//     withholding a newline or streaming an endless payload.
//
// docs/WIRE_PROTOCOL.md ("Drain semantics") is the normative statement
// of both contracts.
package wire
