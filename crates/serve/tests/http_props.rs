//! Property tests of the HTTP request reader: any bytes a client sends
//! before closing the connection yield a request or a typed `HttpError`,
//! never a panic or a hang, and a well-formed `POST` round-trips its
//! method, path and body exactly.

use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use proptest::prelude::*;
use tac25d_serve::http::{read_request, HttpError, Request};

/// Sends `bytes` over a loopback connection that the client then closes,
/// and reads one request from the server side.
fn read_sent(bytes: &[u8]) -> Result<Request, HttpError> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
    client.write_all(bytes).expect("send");
    client.shutdown(Shutdown::Write).expect("close");
    let (mut server, _) = listener.accept().expect("accept");
    // A closed client always ends the read; the timeout only turns a hang
    // into a failed case.
    server
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    read_request(&mut server, &mut Vec::new())
}

/// Pieces of request heads, heavy on line breaks and on the
/// `Content-Length` edge cases: past the body limit, past `usize`, and
/// declaring more body than is sent.
const PIECES: &[&str] = &[
    "\r\n",
    "\r\n\r\n",
    "\r",
    "\n",
    ":",
    " ",
    "GET / HTTP/1.1",
    "POST /v1/evaluate HTTP/1.1",
    "HTTP/2",
    "Host: x",
    "Connection: close",
    "Transfer-Encoding: chunked",
    "Content-Length: ",
    "Content-Length: 1048576",
    "Content-Length: 1048577",
    "Content-Length: 18446744073709551615",
    "Content-Length: 99999999999999999999999",
    "Content-Length: -1",
    "{\"benchmark\":\"canneal\"}",
    "\u{feff}",
];

/// Bytes that cannot start or continue valid UTF-8.
const RAW: &[u8] = &[0x00, 0x7f, 0x80, 0xc3, 0xfe, 0xff];

/// Characters a generated request path is drawn from.
const PATH_CHARS: &[u8] = b"abcz019-_.~%/?=&";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Uniformly random bytes.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..2048)) {
        check_typed(&bytes)?;
    }

    /// Head-shaped noise: request pieces, CRLFs and invalid UTF-8 mixed.
    #[test]
    fn crlf_heavy_heads_never_panic(
        picks in prop::collection::vec((0usize..PIECES.len(), 0usize..RAW.len(), 0u8..8), 0..48),
    ) {
        let mut bytes = Vec::new();
        for (piece, raw, mode) in picks {
            match mode {
                0 => bytes.push(RAW[raw]),
                _ => bytes.extend_from_slice(PIECES[piece].as_bytes()),
            }
        }
        check_typed(&bytes)?;
    }

    /// A valid `POST` with any body (line breaks included) and any
    /// method case comes back with its method, path and body intact.
    #[test]
    fn valid_posts_round_trip(
        segments in prop::collection::vec(prop::collection::vec(0usize..PATH_CHARS.len(), 0..8), 1..4),
        body in prop::collection::vec(0u8..=255, 0..4096),
        method in prop::sample::select(vec!["POST", "post", "Post"]),
        close in prop::sample::select(vec![false, true]),
    ) {
        let path: String = segments
            .iter()
            .map(|s| format!("/{}", s.iter().map(|&c| char::from(PATH_CHARS[c])).collect::<String>()))
            .collect();
        let mut bytes = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n{}\r\n",
            body.len(),
            if close { "Connection: close\r\n" } else { "" },
        )
        .into_bytes();
        bytes.extend_from_slice(&body);
        let request = read_sent(&bytes).map_err(|e| TestCaseError::Fail(format!("{e}")))?;
        prop_assert_eq!(request.method.as_str(), "POST");
        prop_assert_eq!(&request.path, &path);
        prop_assert_eq!(&request.body, &body);
        prop_assert_eq!(request.wants_close(), close);
    }
}

/// Reads `bytes` and checks the outcome is a request whose body matches
/// its declared length, or a typed error other than a timeout (which
/// would mean the reader waited on a closed connection).
fn check_typed(bytes: &[u8]) -> Result<(), TestCaseError> {
    match read_sent(bytes) {
        Ok(request) => {
            let declared = request
                .header("content-length")
                .map_or(0, |v| v.parse().expect("accepted length parses"));
            prop_assert_eq!(request.body.len(), declared);
        }
        Err(HttpError::Timeout) => prop_assert!(false, "read hung on {bytes:?}"),
        Err(_) => {}
    }
    Ok(())
}
