//! KISS-style byte framing with escaping, sequence numbers, and a
//! CRC-16 trailer.
//!
//! The wire image of one frame is
//!
//! ```text
//! FEND  escape( kind | seq_lo seq_hi | payload… | crc_hi crc_lo )  FEND
//! ```
//!
//! where `escape` replaces in-band `FEND`/`FESC` bytes with the
//! two-byte KISS sequences (`FESC TFEND` / `FESC TFESC`), `seq` is a
//! little-endian `u16`, and the CRC-16 (the workspace's CRC-16/XMODEM,
//! shared with the LoRa PHY) covers `kind|seq|payload` big-endian —
//! the same trailer convention as `tinysdr_ota::protocol`.
//!
//! The framing exists so a packet layer can ride **any** registered
//! [`tinysdr_rf::phy::PhyModem`]: a modem's `demodulate` returns a
//! best-effort byte stream, and the [`Deframer`] recovers frame
//! boundaries from it even when leading/trailing bytes are noise.
//! Anything that does not validate (bad escape, short or oversize body,
//! CRC mismatch, unknown kind) is *dropped and counted* — corruption
//! becomes loss, never a silently different frame.

use tinysdr_lora::phy::crc16;

/// Frame delimiter (KISS `FEND`).
pub const FEND: u8 = 0xC0;
/// Escape byte (KISS `FESC`).
pub const FESC: u8 = 0xDB;
/// Escaped substitute for an in-band `FEND`.
pub const TFEND: u8 = 0xDC;
/// Escaped substitute for an in-band `FESC`.
pub const TFESC: u8 = 0xDD;

/// Largest payload a single frame may carry, bytes. Chosen to keep the
/// worst-case escaped wire image inside a 255-byte LoRa packet with
/// headroom for header, CRC and escaping overhead.
pub const MAX_PAYLOAD: usize = 120;

/// Largest valid unescaped body, bytes: kind, sequence number,
/// [`MAX_PAYLOAD`] bytes of payload and the CRC-16. The [`Deframer`]
/// buffers no more than this of any envelope.
pub const MAX_BODY: usize = 3 + MAX_PAYLOAD + 2;

/// Frame types of the link layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// One chunk of an ARQ byte stream.
    Data,
    /// Acknowledges a received `Data` frame (same `seq`).
    Ack,
    /// End of an ARQ stream (sent only after every `Data` is acked).
    Fin,
    /// Acknowledges a `Fin` — distinct from [`FrameKind::Ack`] so a
    /// late duplicate data ACK can never terminate a stream early.
    FinAck,
    /// RF ping request.
    Ping,
    /// RF ping reply (payload carries the responder's measured RSSI).
    Pong,
}

impl FrameKind {
    /// Wire tag.
    pub fn tag(self) -> u8 {
        match self {
            FrameKind::Data => 0x01,
            FrameKind::Ack => 0x02,
            FrameKind::Fin => 0x03,
            FrameKind::FinAck => 0x04,
            FrameKind::Ping => 0x05,
            FrameKind::Pong => 0x06,
        }
    }

    /// Parse a wire tag.
    pub fn from_tag(tag: u8) -> Option<FrameKind> {
        Some(match tag {
            0x01 => FrameKind::Data,
            0x02 => FrameKind::Ack,
            0x03 => FrameKind::Fin,
            0x04 => FrameKind::FinAck,
            0x05 => FrameKind::Ping,
            0x06 => FrameKind::Pong,
            _ => return None,
        })
    }
}

/// One link-layer frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame is.
    pub kind: FrameKind,
    /// Sequence number (wire-level; ARQ endpoints track 64-bit logical
    /// indices and put the low 16 bits here).
    pub seq: u16,
    /// Payload bytes (`Data` chunks; RSSI report in a `Pong`).
    pub payload: Vec<u8>,
}

/// Decoding failures. Every variant means the frame is *dropped* — the
/// deframer counts it and moves on, so corruption is indistinguishable
/// from loss at the ARQ layer, exactly like a real radio CRC gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// No complete `FEND … FEND` envelope in the input.
    NoFrame,
    /// Unescaped body shorter than header + CRC (5 bytes).
    Truncated,
    /// Unescaped body longer than the largest valid one ([`MAX_BODY`]).
    Oversize,
    /// `FESC` followed by something other than `TFEND`/`TFESC`.
    BadEscape(u8),
    /// CRC-16 trailer mismatch.
    BadCrc,
    /// Unknown frame kind tag.
    BadKind(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::NoFrame => write!(f, "no complete frame envelope"),
            FrameError::Truncated => write!(f, "frame body shorter than header + CRC"),
            FrameError::Oversize => write!(f, "frame body longer than {MAX_BODY} bytes"),
            FrameError::BadEscape(b) => write!(f, "invalid escape sequence FESC {b:#04x}"),
            FrameError::BadCrc => write!(f, "frame CRC-16 mismatch"),
            FrameError::BadKind(t) => write!(f, "unknown frame kind tag {t:#04x}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl Frame {
    /// A data chunk.
    ///
    /// # Panics
    /// Panics if `payload` exceeds [`MAX_PAYLOAD`] — chunking is the
    /// ARQ layer's job, and a silent truncation here would corrupt the
    /// stream.
    pub fn data(seq: u16, payload: Vec<u8>) -> Frame {
        assert!(
            payload.len() <= MAX_PAYLOAD,
            "data payload {} exceeds MAX_PAYLOAD {MAX_PAYLOAD}",
            payload.len()
        );
        Frame {
            kind: FrameKind::Data,
            seq,
            payload,
        }
    }

    /// An ACK for `seq`.
    pub fn ack(seq: u16) -> Frame {
        Frame {
            kind: FrameKind::Ack,
            seq,
            payload: Vec::new(),
        }
    }

    /// A stream-terminating FIN (seq = total frame count, mod 2^16).
    pub fn fin(seq: u16) -> Frame {
        Frame {
            kind: FrameKind::Fin,
            seq,
            payload: Vec::new(),
        }
    }

    /// A FIN acknowledgement.
    pub fn fin_ack(seq: u16) -> Frame {
        Frame {
            kind: FrameKind::FinAck,
            seq,
            payload: Vec::new(),
        }
    }

    /// A ping request.
    pub fn ping(seq: u16) -> Frame {
        Frame {
            kind: FrameKind::Ping,
            seq,
            payload: Vec::new(),
        }
    }

    /// A ping reply carrying the responder's measured RSSI, dBm.
    pub fn pong(seq: u16, rssi_dbm: f64) -> Frame {
        Frame {
            kind: FrameKind::Pong,
            seq,
            payload: rssi_dbm.to_le_bytes().to_vec(),
        }
    }

    /// The RSSI a [`Frame::pong`] carries; `None` for other frames or a
    /// malformed payload.
    pub fn pong_rssi_dbm(&self) -> Option<f64> {
        if self.kind != FrameKind::Pong {
            return None;
        }
        let bytes: [u8; 8] = self.payload.as_slice().try_into().ok()?;
        Some(f64::from_le_bytes(bytes))
    }

    /// Encode to the delimited, escaped wire image.
    ///
    /// # Panics
    /// Panics if the payload exceeds [`MAX_PAYLOAD`] (unreachable via
    /// the constructors, which enforce the bound).
    pub fn encode(&self) -> Vec<u8> {
        assert!(
            self.payload.len() <= MAX_PAYLOAD,
            "payload {} exceeds MAX_PAYLOAD {MAX_PAYLOAD}",
            self.payload.len()
        );
        let mut body = Vec::with_capacity(5 + self.payload.len());
        body.push(self.kind.tag());
        body.extend_from_slice(&self.seq.to_le_bytes());
        body.extend_from_slice(&self.payload);
        let crc = crc16(&body);
        body.extend_from_slice(&crc.to_be_bytes());

        let mut wire = Vec::with_capacity(body.len() + 2);
        wire.push(FEND);
        for &b in &body {
            match b {
                FEND => wire.extend_from_slice(&[FESC, TFEND]),
                FESC => wire.extend_from_slice(&[FESC, TFESC]),
                other => wire.push(other),
            }
        }
        wire.push(FEND);
        wire
    }

    /// Decode exactly one frame from a wire image. Strict: the input
    /// must contain one complete envelope (noise before the first and
    /// after the last delimiter is tolerated and ignored, matching what
    /// a radio capture looks like).
    ///
    /// # Errors
    /// Any validation failure ([`FrameError`]); the input should then
    /// be treated as loss.
    pub fn decode(wire: &[u8]) -> Result<Frame, FrameError> {
        let mut d = Deframer::new();
        let mut out = Vec::new();
        d.push_bytes(wire, &mut out);
        match out.pop() {
            Some(f) if out.is_empty() => Ok(f),
            Some(_) => Err(FrameError::NoFrame), // more than one frame: ambiguous
            None => Err(d.last_error.unwrap_or(FrameError::NoFrame)),
        }
    }

    /// Decode the unescaped body (everything between two delimiters,
    /// escapes already resolved).
    fn from_body(body: &[u8]) -> Result<Frame, FrameError> {
        if body.len() < 5 {
            return Err(FrameError::Truncated);
        }
        if body.len() > MAX_BODY {
            return Err(FrameError::Oversize);
        }
        let (content, crc_bytes) = body.split_at(body.len() - 2);
        let want = u16::from_be_bytes([crc_bytes[0], crc_bytes[1]]);
        if crc16(content) != want {
            return Err(FrameError::BadCrc);
        }
        let kind = FrameKind::from_tag(content[0]).ok_or(FrameError::BadKind(content[0]))?;
        let seq = u16::from_le_bytes([content[1], content[2]]);
        Ok(Frame {
            kind,
            seq,
            payload: content[3..].to_vec(),
        })
    }
}

/// Streaming frame recovery from a (possibly noisy) byte stream.
///
/// Feed arbitrary byte slices in; complete, validated frames come out.
/// Bytes before the first delimiter are skipped as noise; empty
/// envelopes (back-to-back `FEND`s, a KISS idiom) are ignored; bodies
/// that fail validation are counted in [`Deframer::rejected`] and
/// dropped. An unterminated trailing frame stays buffered until its
/// closing `FEND` arrives on a later push — up to [`MAX_BODY`] bytes: a
/// body that grows past them is rejected at once, and the bytes up to
/// the next `FEND` are skipped as noise.
#[derive(Debug, Default)]
pub struct Deframer {
    body: Vec<u8>,
    in_frame: bool,
    escaped: bool,
    bad_body: bool,
    noise_bytes: u64,
    rejected: u64,
    last_error: Option<FrameError>,
}

impl Deframer {
    /// A fresh deframer.
    pub fn new() -> Self {
        Deframer::default()
    }

    /// Bytes discarded outside any frame envelope.
    pub fn noise_bytes(&self) -> u64 {
        self.noise_bytes
    }

    /// Envelopes that failed validation (escape/CRC/kind, or a body
    /// past [`MAX_BODY`]).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Consume `bytes`, appending every recovered frame to `out`.
    pub fn push_bytes(&mut self, bytes: &[u8], out: &mut Vec<Frame>) {
        for &b in bytes {
            if !self.in_frame {
                if b == FEND {
                    self.in_frame = true;
                    self.body.clear();
                    self.escaped = false;
                    self.bad_body = false;
                } else {
                    self.noise_bytes += 1;
                }
                continue;
            }
            if b == FEND {
                // end of envelope (or a spurious re-sync delimiter)
                if self.escaped {
                    // dangling FESC before the delimiter: invalid body
                    self.bad_body = true;
                    self.last_error = Some(FrameError::BadEscape(FEND));
                }
                if !self.body.is_empty() || self.bad_body {
                    if self.bad_body {
                        self.rejected += 1;
                    } else {
                        match Frame::from_body(&self.body) {
                            Ok(f) => out.push(f),
                            Err(e) => {
                                self.rejected += 1;
                                self.last_error = Some(e);
                            }
                        }
                    }
                }
                // stay in-frame: this FEND also opens the next envelope
                self.body.clear();
                self.escaped = false;
                self.bad_body = false;
                continue;
            }
            let byte = if self.escaped {
                self.escaped = false;
                match b {
                    TFEND => FEND,
                    TFESC => FESC,
                    other => {
                        self.bad_body = true;
                        self.last_error = Some(FrameError::BadEscape(other));
                        continue;
                    }
                }
            } else if b == FESC {
                self.escaped = true;
                continue;
            } else {
                b
            };
            if self.body.len() == MAX_BODY {
                // no valid frame is this long: drop it and resync at the
                // next delimiter
                self.rejected += 1;
                self.last_error = Some(FrameError::Oversize);
                self.in_frame = false;
                self.body.clear();
                continue;
            }
            self.body.push(byte);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_kinds() {
        let frames = vec![
            Frame::data(7, vec![1, 2, 3]),
            Frame::ack(7),
            Frame::fin(999),
            Frame::fin_ack(999),
            Frame::ping(3),
            Frame::pong(3, -91.25),
        ];
        for f in frames {
            let wire = f.encode();
            assert_eq!(wire.first(), Some(&FEND));
            assert_eq!(wire.last(), Some(&FEND));
            assert_eq!(Frame::decode(&wire).expect("decodes"), f);
        }
    }

    #[test]
    fn escape_heavy_payload_round_trips() {
        // payload consisting entirely of delimiter/escape bytes
        let payload = vec![FEND, FESC, FEND, FESC, TFEND, TFESC, FEND];
        let f = Frame::data(0xBEEF, payload.clone());
        let wire = f.encode();
        // no raw FEND inside the envelope
        assert!(wire[1..wire.len() - 1].iter().all(|&b| b != FEND));
        let back = Frame::decode(&wire).expect("decodes");
        assert_eq!(back.payload, payload);
        assert_eq!(back.seq, 0xBEEF);
    }

    #[test]
    fn pong_carries_rssi() {
        let f = Frame::pong(1, -103.5);
        assert_eq!(f.pong_rssi_dbm(), Some(-103.5));
        assert_eq!(Frame::ack(1).pong_rssi_dbm(), None);
    }

    #[test]
    fn deframer_recovers_frames_from_noisy_stream() {
        let a = Frame::data(1, vec![0xAA; 10]);
        let b = Frame::ack(1);
        let mut stream = vec![0x17, 0x99]; // leading noise
        stream.extend_from_slice(&a.encode());
        stream.extend_from_slice(&[FEND, FEND]); // empty envelopes
        stream.extend_from_slice(&b.encode());
        stream.extend_from_slice(&[0x42]); // trailing noise (next frame?)
        let mut d = Deframer::new();
        let mut out = Vec::new();
        d.push_bytes(&stream, &mut out);
        assert_eq!(out, vec![a, b]);
        assert_eq!(d.noise_bytes(), 2, "only the pre-sync bytes count");
        assert_eq!(d.rejected(), 0);
    }

    #[test]
    fn deframer_survives_split_pushes() {
        let f = Frame::data(42, (0u8..100).collect());
        let wire = f.encode();
        for split in 1..wire.len() {
            let mut d = Deframer::new();
            let mut out = Vec::new();
            d.push_bytes(&wire[..split], &mut out);
            d.push_bytes(&wire[split..], &mut out);
            assert_eq!(out, vec![f.clone()], "split at {split}");
        }
    }

    #[test]
    fn corrupted_body_is_rejected_and_counted() {
        let f = Frame::data(5, vec![1, 2, 3, 4]);
        let mut wire = f.encode();
        let mid = wire.len() / 2;
        wire[mid] ^= 0x10;
        let mut d = Deframer::new();
        let mut out = Vec::new();
        d.push_bytes(&wire, &mut out);
        // either the CRC catches it, or the flip hit a delimiter and the
        // fragments fail validation — never a silently different frame
        assert!(out.is_empty() || out == vec![f.clone()]);
        if out.is_empty() {
            assert!(d.rejected() > 0 || d.noise_bytes() > 0);
        }
    }

    #[test]
    fn bad_escape_is_rejected() {
        // FEND, kind, FESC followed by a non-TFEND/TFESC byte, FEND
        let wire = vec![FEND, 0x01, FESC, 0x00, 0x10, 0x20, 0x30, 0x40, FEND];
        assert_eq!(Frame::decode(&wire), Err(FrameError::BadEscape(0x00)));
    }

    #[test]
    fn short_body_is_truncated() {
        let wire = vec![FEND, 0x01, 0x02, FEND];
        assert_eq!(Frame::decode(&wire), Err(FrameError::Truncated));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut body = vec![0x7Fu8, 0, 0];
        let crc = crc16(&body);
        body.extend_from_slice(&crc.to_be_bytes());
        let mut wire = vec![FEND];
        wire.extend_from_slice(&body);
        wire.push(FEND);
        assert_eq!(Frame::decode(&wire), Err(FrameError::BadKind(0x7F)));
    }

    #[test]
    fn decode_requires_a_complete_envelope() {
        let f = Frame::ack(9);
        let wire = f.encode();
        // missing the closing delimiter: not a frame yet
        assert!(Frame::decode(&wire[..wire.len() - 1]).is_err());
        // missing the opening delimiter: body is noise, no frame
        assert!(Frame::decode(&wire[1..]).is_err());
    }

    #[test]
    fn an_endless_body_stays_within_the_cap() {
        // a delimiter, then 1 MiB without one: the deframer buffers at
        // most the largest valid body and rejects the envelope once
        let mut d = Deframer::new();
        let mut out = Vec::new();
        d.push_bytes(&[FEND], &mut out);
        for _ in 0..16 {
            d.push_bytes(&[0x5A; 1 << 16], &mut out);
            assert!(d.body.len() <= MAX_BODY, "{} bytes buffered", d.body.len());
        }
        assert_eq!(d.rejected(), 1);
        assert_eq!(d.last_error, Some(FrameError::Oversize));
        assert!(out.is_empty());
        // the next delimiter resyncs: a frame after it decodes
        d.push_bytes(&Frame::ack(4).encode(), &mut out);
        assert_eq!(out, [Frame::ack(4)]);
        assert_eq!(d.rejected(), 1);
    }

    #[test]
    fn a_valid_crc_over_an_oversize_payload_is_rejected() {
        // kind, seq, MAX_PAYLOAD + 1 bytes, and a CRC that matches them
        let mut body = vec![FrameKind::Data.tag(), 1, 0];
        body.extend(std::iter::repeat_n(0x11, MAX_PAYLOAD + 1));
        let crc = crc16(&body);
        body.extend_from_slice(&crc.to_be_bytes());
        assert_eq!(body.len(), MAX_BODY + 1);
        assert_eq!(Frame::from_body(&body), Err(FrameError::Oversize));
        let mut wire = vec![FEND];
        for &b in &body {
            match b {
                FEND => wire.extend_from_slice(&[FESC, TFEND]),
                FESC => wire.extend_from_slice(&[FESC, TFESC]),
                b => wire.push(b),
            }
        }
        wire.push(FEND);
        assert_eq!(Frame::decode(&wire), Err(FrameError::Oversize));
        let mut d = Deframer::new();
        let mut out = Vec::new();
        d.push_bytes(&wire, &mut out);
        assert!(out.is_empty());
        assert_eq!(d.rejected(), 1);
        // the largest valid payload still round-trips
        let f = Frame::data(2, vec![0x11; MAX_PAYLOAD]);
        assert_eq!(Frame::decode(&f.encode()), Ok(f));
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_PAYLOAD")]
    fn oversized_payload_panics() {
        let _ = Frame::data(0, vec![0; MAX_PAYLOAD + 1]);
    }
}
