//! A minimal blocking client for the line-delimited JSON protocol —
//! used by the end-to-end tests and handy for scripting against a
//! running server.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::error::ServeError;
use crate::query::Request;
use crate::Json;

/// One connection speaking the request/response line protocol.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The reply line read so far. A read that times out mid-line
    /// leaves its bytes here, and the next read continues the line.
    partial: Vec<u8>,
    /// The read timeout the socket has now.
    timeout: Option<Duration>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        Self::over(TcpStream::connect(addr)?)
    }

    /// Connects to a server within `wait`: each resolved address is
    /// dialed with the part of the wait that is left, so a host that
    /// drops SYNs costs the wait, not the kernel's connect timeout.
    ///
    /// # Errors
    ///
    /// The last address's connection failure, or a timeout when the
    /// wait ran out first.
    fn connect_within(addr: impl ToSocketAddrs, wait: Duration) -> Result<Self, ServeError> {
        let until = Instant::now() + wait.max(MIN_WAIT);
        let mut failure = std::io::Error::new(ErrorKind::TimedOut, "no address dialed in time");
        for addr in addr.to_socket_addrs()? {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match TcpStream::connect_timeout(&addr, left) {
                Ok(stream) => return Self::over(stream),
                Err(e) => failure = e,
            }
        }
        Err(failure.into())
    }

    fn over(stream: TcpStream) -> Result<Self, ServeError> {
        let writer = stream.try_clone()?;
        Ok(Self {
            writer,
            reader: BufReader::new(stream),
            partial: Vec::new(),
            timeout: None,
        })
    }

    /// Bounds how long [`Self::call`] waits for a response line. A
    /// timeout equal to the one already set costs no system call.
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ServeError> {
        if timeout != self.timeout {
            self.reader.get_ref().set_read_timeout(timeout)?;
            self.timeout = timeout;
        }
        Ok(())
    }

    /// Sends a typed request and reads its response.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`ServeError::Protocol`] when the server's
    /// reply is not valid JSON.
    pub fn call(&mut self, request: &Request) -> Result<Json, ServeError> {
        self.call_line(&request.to_json().render())
    }

    /// Sends a raw request line (everything before the newline) and
    /// reads its response — useful for protocol-level tests.
    ///
    /// # Errors
    ///
    /// Same as [`Self::call`].
    pub fn call_line(&mut self, line: &str) -> Result<Json, ServeError> {
        self.send_line(line)?;
        self.recv_line()
    }

    /// Sends a raw request line without waiting for its response; read
    /// that with [`Self::recv_line`] or [`Self::recv_within`].
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn send_line(&mut self, line: &str) -> Result<(), ServeError> {
        let mut payload = String::with_capacity(line.len() + 1);
        payload.push_str(line);
        payload.push('\n');
        self.writer.write_all(payload.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads one response line, waiting at most the read timeout. A
    /// timeout is an [`ServeError::Io`] error that
    /// [`ServeError::is_timeout`] recognizes; the bytes read before it
    /// stay buffered, so the next read continues the same line.
    ///
    /// # Errors
    ///
    /// I/O failures and timeouts, [`ServeError::Remote`] when the server
    /// closed the connection, or [`ServeError::Protocol`] when the line
    /// is not valid JSON.
    pub fn recv_line(&mut self) -> Result<Json, ServeError> {
        // `read_until`, not `read_line`: a timeout that splits a UTF-8
        // character must keep the bytes read so far, and `read_line`
        // drops them.
        let n = self.reader.read_until(b'\n', &mut self.partial)?;
        let reply = if n == 0 {
            Err(ServeError::Remote("server closed the connection".into()))
        } else {
            std::str::from_utf8(&self.partial)
                .map_err(|e| ServeError::Protocol(e.to_string()))
                .and_then(|text| {
                    Json::parse(text.trim_end()).map_err(|e| ServeError::Protocol(e.to_string()))
                })
        };
        self.partial.clear();
        reply
    }

    /// Waits at most `wait` for one response line. `Ok(None)` means the
    /// wait ran out first; the bytes read so far stay buffered, and a
    /// later [`Self::recv_line`] or `recv_within` continues the line.
    ///
    /// # Errors
    ///
    /// Same as [`Self::recv_line`], except a timeout.
    pub fn recv_within(&mut self, wait: Duration) -> Result<Option<Json>, ServeError> {
        self.set_timeout(Some(wait.max(MIN_WAIT)))?;
        match self.recv_line() {
            Err(e) if e.is_timeout() => Ok(None),
            reply => reply.map(Some),
        }
    }
}

/// The shortest read timeout a bounded wait sets: the socket rejects a
/// zero timeout.
const MIN_WAIT: Duration = Duration::from_millis(1);

/// A reusable connection to one serve node that survives node restarts.
///
/// [`Client`] is a thin wrapper over one TCP stream: when the stream
/// dies (node restarted, connection dropped by a fault plan), every
/// later call fails. `NodeConn` is the router-side upgrade — it dials
/// lazily on first use, and when a call fails it tears the connection
/// down so the *next* call redials from scratch. The failed call still
/// reports its error: the caller decides whether to retry, hedge, or
/// fail over, so a half-written request is never silently resent.
/// A dial waits at most the handle's timeout, or the wait a
/// [`Self::send_line_within`] caller has left.
pub struct NodeConn {
    addr: String,
    timeout: Option<Duration>,
    conn: Option<Client>,
}

impl NodeConn {
    /// Creates a connection handle without dialing; the first call
    /// connects.
    #[must_use]
    pub fn new(addr: impl Into<String>, timeout: Option<Duration>) -> Self {
        Self {
            addr: addr.into(),
            timeout,
            conn: None,
        }
    }

    /// The node address this handle dials.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Drops the held connection; the next call redials.
    fn disconnect(&mut self) {
        self.conn = None;
    }

    fn ensure(&mut self, wait: Option<Duration>) -> Result<&mut Client, ServeError> {
        match self.conn {
            Some(ref mut client) => Ok(client),
            ref mut slot => {
                let mut client = match wait.or(self.timeout) {
                    Some(wait) => Client::connect_within(&self.addr, wait)?,
                    None => Client::connect(&self.addr)?,
                };
                client.set_timeout(self.timeout)?;
                Ok(slot.insert(client))
            }
        }
    }

    /// Sends one raw request line, dialing or redialing as needed, and
    /// reads its reply within the handle's timeout.
    ///
    /// # Errors
    ///
    /// Connection or I/O failures, a timeout included (the handle
    /// disconnects itself so the next call redials), or
    /// [`ServeError::Protocol`] on a malformed reply (the connection is
    /// kept — the transport itself is fine).
    pub fn call_line(&mut self, line: &str) -> Result<Json, ServeError> {
        self.send_line(line)?;
        self.recv_line()
    }

    /// Sends one raw request line, dialing or redialing as needed,
    /// without waiting for its reply.
    ///
    /// # Errors
    ///
    /// Connection or I/O failures (the handle disconnects itself).
    pub fn send_line(&mut self, line: &str) -> Result<(), ServeError> {
        let result = self.ensure(None).and_then(|c| c.send_line(line));
        self.settle(result)
    }

    /// [`Self::send_line`] whose dial, when it must dial, waits at most
    /// `wait`.
    ///
    /// # Errors
    ///
    /// Same as [`Self::send_line`], a dial that outlasts `wait` included.
    pub fn send_line_within(&mut self, line: &str, wait: Duration) -> Result<(), ServeError> {
        let result = self.ensure(Some(wait)).and_then(|c| c.send_line(line));
        self.settle(result)
    }

    /// Reads the reply to the line sent last within the handle's
    /// timeout, continuing any part of it an earlier
    /// [`Self::recv_within`] read.
    ///
    /// # Errors
    ///
    /// Same as [`Self::call_line`].
    pub fn recv_line(&mut self) -> Result<Json, ServeError> {
        let timeout = self.timeout;
        let result = self.connected().and_then(|c| {
            c.set_timeout(timeout)?;
            c.recv_line()
        });
        self.settle(result)
    }

    /// Waits at most `wait` for the reply to the line sent last.
    /// `Ok(None)` means the wait ran out first: the connection stays
    /// open with the reply in flight, for a later [`Self::recv_line`].
    ///
    /// # Errors
    ///
    /// Same as [`Self::call_line`], except a timeout.
    pub fn recv_within(&mut self, wait: Duration) -> Result<Option<Json>, ServeError> {
        let result = self.connected().and_then(|c| c.recv_within(wait));
        self.settle(result)
    }

    fn connected(&mut self) -> Result<&mut Client, ServeError> {
        self.conn
            .as_mut()
            .ok_or_else(|| ServeError::Remote("no request in flight".into()))
    }

    /// Drops the connection after a transport failure, so the next call
    /// redials; a protocol error keeps it.
    fn settle<T>(&mut self, result: Result<T, ServeError>) -> Result<T, ServeError> {
        if matches!(result, Err(ServeError::Io(_)) | Err(ServeError::Remote(_))) {
            self.disconnect();
        }
        result
    }

    /// Sends a typed request, dialing or redialing as needed.
    ///
    /// # Errors
    ///
    /// Same as [`Self::call_line`].
    pub fn call(&mut self, request: &Request) -> Result<Json, ServeError> {
        self.call_line(&request.to_json().render())
    }
}
