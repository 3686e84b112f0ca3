//! Parent <-> worker-process protocol: length-prefixed `sim-store`
//! records over stdin/stdout.
//!
//! Every frame is a `u32` little-endian byte count followed by one
//! framed, checksummed record (the same codec the store persists — tags
//! 100+ are transient protocol types that never reach disk). The
//! conversation:
//!
//! ```text
//! parent -> worker   JobSpec           (once, on startup)
//! worker -> parent   WorkerReady       (golden fingerprint; parent fails
//!                                       closed unless it matches its own)
//! parent -> worker   WorkerTask        (one lease: N consecutive  \
//!                                       chunks run as one range)    | repeated
//! worker -> parent   WorkerChunk x N   (one per chunk, in order)  /  per lease
//! parent closes stdin -> worker exits 0
//! ```
//!
//! The parent sends a worker's next lease as soon as the last reply of
//! its current one is in, then publishes the current lease's chunks, so
//! the worker computes while the parent fsyncs.
//!
//! The worker never touches the store; only the parent — the single
//! canonical writer — persists chunks. Every reply is validated against
//! its slot in the lease before anything of that lease is published; a
//! worker that dies mid-lease, replies short, or answers for the wrong
//! slot fails the job rather than publish a partial shard.

use sim_store::{
    decode_record, encode_record, ChunkPlan, ChunkRecord, Codec, Decoder, Encoder,
    GoldenFingerprint, WireError,
};
use std::io::{Read, Write};

/// Cap on a single protocol frame; anything larger is a corrupt length
/// prefix, not a real record.
pub const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// Worker greeting: proof of which golden state it rebuilt.
#[derive(Debug, Clone)]
pub struct WorkerReady {
    /// Fingerprint of the campaign the worker prepared.
    pub fingerprint: GoldenFingerprint,
}

impl Codec for WorkerReady {
    const TAG: u16 = 100;
    const NAME: &'static str = "WorkerReady";

    fn encode_body(&self, e: &mut Encoder) {
        self.fingerprint.encode_body(e);
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<WorkerReady, WireError> {
        Ok(WorkerReady {
            fingerprint: GoldenFingerprint::decode_body(d)?,
        })
    }
}

/// One lease assignment: a run of consecutive chunks.
///
/// On the wire a lease is its first chunk's index and start plus every
/// chunk's length, so a decoded lease is consecutive by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerTask {
    /// The lease's chunks, in order.
    pub lease: Vec<ChunkPlan>,
}

impl Codec for WorkerTask {
    const TAG: u16 = 101;
    const NAME: &'static str = "WorkerTask";

    fn encode_body(&self, e: &mut Encoder) {
        let first = self.lease.first().map_or((0, 0), |p| (p.index, p.start));
        e.put_usize(first.0);
        e.put_usize(first.1);
        e.put_usize(self.lease.len());
        for plan in &self.lease {
            e.put_usize(plan.len);
        }
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<WorkerTask, WireError> {
        let (mut index, mut start) = (d.get_usize()?, d.get_usize()?);
        let n = d.get_usize()?;
        let mut lease = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let len = d.get_usize()?;
            lease.push(ChunkPlan { index, start, len });
            index = index
                .checked_add(1)
                .ok_or(WireError::IntOutOfRange(index as u64))?;
            start = start
                .checked_add(len)
                .ok_or(WireError::IntOutOfRange(len as u64))?;
        }
        Ok(WorkerTask { lease })
    }
}

/// One completed chunk, travelling back to the parent.
#[derive(Debug, Clone)]
pub struct WorkerChunk {
    /// The chunk, exactly as the parent will persist it.
    pub chunk: ChunkRecord,
}

impl Codec for WorkerChunk {
    const TAG: u16 = 102;
    const NAME: &'static str = "WorkerChunk";

    fn encode_body(&self, e: &mut Encoder) {
        self.chunk.encode_body(e);
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<WorkerChunk, WireError> {
        Ok(WorkerChunk {
            chunk: ChunkRecord::decode_body(d)?,
        })
    }
}

/// Write one framed record.
pub fn write_frame<T: Codec, W: Write>(w: &mut W, value: &T) -> std::io::Result<()> {
    let bytes = encode_record(value);
    let len = u32::try_from(bytes.len()).expect("frame < 4 GiB");
    assert!(len <= MAX_FRAME, "{} frame of {len} bytes", T::NAME);
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&bytes)?;
    w.flush()
}

/// Read one framed record of type `T`. `Ok(None)` on clean EOF at a frame
/// boundary; any mid-frame truncation or decode failure is an error.
pub fn read_frame<T: Codec, R: Read>(r: &mut R) -> std::io::Result<Option<T>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(std::io::Error::other(format!(
            "frame length {len} exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    let mut bytes = vec![0u8; len as usize];
    r.read_exact(&mut bytes)?;
    decode_record::<T>(&bytes)
        .map(Some)
        .map_err(|e| std::io::Error::other(format!("{} frame: {e}", T::NAME)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lease() -> WorkerTask {
        WorkerTask {
            lease: sim_store::plan_chunks(134, 5)[24..].to_vec(),
        }
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean() {
        let task = lease();
        assert_eq!(task.lease.len(), 3, "chunks 24, 25 and the 4-trial tail");
        let mut buf = Vec::new();
        write_frame(&mut buf, &task).unwrap();
        let mut r = &buf[..];
        let got: WorkerTask = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(got, task);
        assert!(read_frame::<WorkerTask, _>(&mut r).unwrap().is_none());
        // Mid-frame truncation is an error, not EOF.
        let mut r = &buf[..buf.len() - 1];
        assert!(read_frame::<WorkerTask, _>(&mut r).is_err());
    }

    #[test]
    fn lease_encoding_is_canonical_and_consecutive_by_construction() {
        let task = lease();
        let bytes = encode_record(&task);
        let back: WorkerTask = decode_record(&bytes).unwrap();
        assert_eq!(encode_record(&back), bytes, "byte identity");
        for w in back.lease.windows(2) {
            assert_eq!(w[0].index + 1, w[1].index);
            assert_eq!(w[0].start + w[0].len, w[1].start);
        }
        // Index, start, count, then one length per chunk: nothing else.
        let mut e = Encoder::new();
        task.encode_body(&mut e);
        assert_eq!(e.into_bytes().len(), 8 * (3 + task.lease.len()));
        // Single-chunk and empty leases round-trip too.
        for lease in [vec![task.lease[0]], Vec::new()] {
            let t = WorkerTask { lease };
            assert_eq!(decode_record::<WorkerTask>(&encode_record(&t)).unwrap(), t);
        }
    }
}
