//! The 30 KB block pipeline (paper §3.4).
//!
//! "The compression ratio of bitstream file varies based on the content
//! […] in the worst case the compressed file could have almost the same
//! size of the original file. This would require a maximum memory
//! allocation of 579 kB which we cannot afford on a low-cost MCU.
//! Instead, we first divide the original update file into blocks of
//! 30 kB that will fit in the MCU memory. Then we compress each block
//! separately and transmit them to the tinySDR node one by one. […]
//! After receiving all the data we turn off the LoRa radio and
//! decompress data. First, we allocate memory on the MCU's SRAM equal to
//! the block size and load a block of data from flash. Next, we perform
//! decompression and write the data in the allocated SRAM memory.
//! Finally, we write the decompressed data back to the flash."

use tinysdr_hw::flash::Flash;
use tinysdr_hw::mcu::Mcu;

use crate::image::FirmwareImage;
use crate::lzo;

/// Block size the paper chose to fit the MCU's 64 KB SRAM (input block +
/// decompressed block both resident during decompression).
pub const BLOCK_SIZE: usize = 30 * 1024;

/// One compressed block with its framing metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedBlock {
    /// Block index.
    pub index: u32,
    /// Uncompressed length (≤ `BLOCK_SIZE`).
    pub raw_len: u32,
    /// Compressed payload.
    pub payload: Vec<u8>,
}

/// A blocked, compressed firmware update ready for transmission.
#[derive(Debug, Clone)]
pub struct BlockedUpdate {
    /// Image name (for logs).
    pub name: String,
    /// Total uncompressed size.
    pub raw_len: usize,
    /// Image CRC-32 (sent in the end-of-update packet).
    pub image_crc32: u32,
    /// The compressed blocks in order.
    pub blocks: Vec<CompressedBlock>,
}

impl BlockedUpdate {
    /// Compress an image block-by-block (runs on the AP: "We perform
    /// compression on the AP").
    pub fn build(image: &FirmwareImage) -> Self {
        let blocks = image
            .data
            .chunks(BLOCK_SIZE)
            .enumerate()
            .map(|(i, chunk)| CompressedBlock {
                index: i as u32,
                raw_len: chunk.len() as u32,
                payload: lzo::compress(chunk),
            })
            .collect();
        BlockedUpdate {
            name: image.name.clone(),
            raw_len: image.len(),
            image_crc32: image.crc32,
            blocks,
        }
    }

    /// Total compressed bytes that go over the air.
    pub fn compressed_len(&self) -> usize {
        self.blocks.iter().map(|b| b.payload.len() + 9).sum() // +framing
    }

    /// Number of `Data` packets that carry [`Self::wire_stream`]: one per
    /// [`DATA_PAYLOAD`](crate::protocol::DATA_PAYLOAD) bytes, the count
    /// [`packetize`](crate::protocol::packetize) yields, without building
    /// the stream.
    pub fn packet_count(&self) -> usize {
        self.compressed_len()
            .div_ceil(crate::protocol::DATA_PAYLOAD)
    }

    /// Assemble the over-the-air byte stream: every compressed block
    /// preceded by its 9-byte header (`index` LE u32, `raw_len` LE u32,
    /// one reserved zero byte). This is the exact stream the session
    /// engine packetizes and the `tinysdr-link` ARQ pipe transfers —
    /// one definition, so the abstract model and the real link cannot
    /// drift apart.
    pub fn wire_stream(&self) -> Vec<u8> {
        let mut stream = Vec::with_capacity(self.compressed_len());
        for b in &self.blocks {
            stream.extend_from_slice(&b.index.to_le_bytes());
            stream.extend_from_slice(&b.raw_len.to_le_bytes());
            stream.push(0);
            stream.extend_from_slice(&b.payload);
        }
        stream
    }

    /// Parse a received [`BlockedUpdate::wire_stream`] back into blocks
    /// and decompress them to the raw image bytes. The inverse is exact:
    /// `unpack_wire_stream(&u.wire_stream())` equals the original image
    /// for any update built by [`BlockedUpdate::build`].
    ///
    /// # Errors
    /// [`PipelineError::Corrupt`] when a header is truncated, a reserved
    /// byte is nonzero, an index is out of sequence, or a block fails to
    /// decompress to its declared length.
    pub fn unpack_wire_stream(stream: &[u8]) -> Result<Vec<u8>, PipelineError> {
        let mut image = Vec::new();
        let mut cursor = 0usize;
        let mut expected_index = 0u32;
        while cursor < stream.len() {
            let header = stream
                .get(cursor..cursor + 9)
                .ok_or(PipelineError::Corrupt {
                    index: expected_index,
                })?;
            let index = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
            let raw_len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
            if header[8] != 0 || index != expected_index || raw_len == 0 || raw_len > BLOCK_SIZE {
                return Err(PipelineError::Corrupt {
                    index: expected_index,
                });
            }
            cursor += 9;
            // the compressed payload's length is not framed: decompress
            // greedily from the cursor and advance by what was consumed
            let (raw, consumed) = lzo::decompress_prefix(&stream[cursor..], raw_len)
                .map_err(|_| PipelineError::Corrupt { index })?;
            if raw.len() != raw_len {
                return Err(PipelineError::Corrupt { index });
            }
            cursor += consumed;
            image.extend_from_slice(&raw);
            expected_index += 1;
        }
        Ok(image)
    }

    /// Overall compression ratio.
    pub fn ratio(&self) -> f64 {
        self.compressed_len() as f64 / self.raw_len as f64
    }
}

/// Errors from the node-side pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// MCU SRAM could not host the working buffers.
    Sram(String),
    /// Flash error while staging data.
    Flash(String),
    /// A block failed to decompress.
    Corrupt {
        /// Which block.
        index: u32,
    },
    /// Reassembled image CRC mismatch.
    CrcMismatch,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Sram(e) => write!(f, "SRAM: {e}"),
            PipelineError::Flash(e) => write!(f, "flash: {e}"),
            PipelineError::Corrupt { index } => write!(f, "block {index} corrupt"),
            PipelineError::CrcMismatch => write!(f, "image CRC mismatch after reassembly"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Result of running the node-side decompression pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Where the reassembled image begins in flash.
    pub image_addr: usize,
    /// Reassembled image length.
    pub image_len: usize,
    /// Modelled MCU decompression time, seconds (paper: ≤ 450 ms).
    pub decompress_time_s: f64,
    /// Peak SRAM used by the pipeline, bytes.
    pub peak_sram: usize,
}

/// Node-side pipeline: stage compressed blocks in flash as they arrive,
/// then decompress block-by-block under the MCU SRAM budget and write
/// the image to its flash slot.
///
/// `staging_addr` is where compressed blocks were written as they
/// arrived; `image_addr` is the final image slot.
///
/// # Errors
/// Propagates SRAM/flash failures, corrupt blocks and CRC mismatch.
pub fn reassemble(
    update: &BlockedUpdate,
    mcu: &mut Mcu,
    flash: &mut Flash,
    staging_addr: usize,
    image_addr: usize,
) -> Result<PipelineReport, PipelineError> {
    // stage compressed blocks into flash (this normally happens packet
    // by packet during the transfer; batched here)
    let mut offsets = Vec::with_capacity(update.blocks.len());
    let mut cursor = staging_addr;
    for b in &update.blocks {
        flash
            .erase_and_program(cursor, &b.payload)
            .map_err(|e| PipelineError::Flash(e.to_string()))?;
        offsets.push((cursor, b.payload.len(), b.raw_len as usize, b.index));
        cursor += b.payload.len().div_ceil(4096) * 4096;
    }

    // decompression loop under the SRAM budget: input block + output
    // block resident simultaneously
    mcu.alloc_sram("ota_in_block", BLOCK_SIZE)
        .map_err(|e| PipelineError::Sram(e.to_string()))?;
    mcu.alloc_sram("ota_out_block", BLOCK_SIZE).map_err(|e| {
        let _ = mcu.free_sram("ota_in_block");
        PipelineError::Sram(e.to_string())
    })?;
    let peak_sram = mcu.sram_used();

    let mut image = Vec::with_capacity(update.raw_len);
    let mut decompress_time = 0.0;
    for (addr, clen, raw_len, index) in offsets {
        let comp = flash
            .read(addr, clen)
            .map_err(|e| PipelineError::Flash(e.to_string()))?
            .to_vec();
        let raw =
            lzo::decompress(&comp, BLOCK_SIZE).map_err(|_| PipelineError::Corrupt { index })?;
        if raw.len() != raw_len {
            return Err(PipelineError::Corrupt { index });
        }
        decompress_time += lzo::mcu_decompress_time_s(raw.len());
        image.extend_from_slice(&raw);
    }
    mcu.free_sram("ota_in_block").ok();
    mcu.free_sram("ota_out_block").ok();

    if tinysdr_fpga::bitstream::crc32(&image) != update.image_crc32 {
        return Err(PipelineError::CrcMismatch);
    }
    flash
        .erase_and_program(image_addr, &image)
        .map_err(|e| PipelineError::Flash(e.to_string()))?;
    Ok(PipelineReport {
        image_addr,
        image_len: image.len(),
        decompress_time_s: decompress_time,
        peak_sram,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{FirmwareImage, ImageKind};
    use tinysdr_hw::flash::ImageSlot;

    #[test]
    fn block_count_for_579kb() {
        let img = FirmwareImage::ble_fpga(1);
        let upd = BlockedUpdate::build(&img);
        assert_eq!(upd.blocks.len(), (579 * 1024usize).div_ceil(BLOCK_SIZE));
        // every block's raw side fits the MCU allocation
        for b in &upd.blocks {
            assert!(b.raw_len as usize <= BLOCK_SIZE);
        }
    }

    #[test]
    fn full_pipeline_reassembles_bitstream() {
        let img = FirmwareImage::ble_fpga(5);
        let upd = BlockedUpdate::build(&img);
        let mut mcu = Mcu::new();
        let mut flash = Flash::new();
        let staging = 4 * 1024 * 1024; // upper half of flash for staging
        let slot = ImageSlot::Fpga(0).base_addr();
        let rep = reassemble(&upd, &mut mcu, &mut flash, staging, slot).unwrap();
        assert_eq!(rep.image_len, img.len());
        assert_eq!(flash.read(slot, img.len()).unwrap(), &img.data[..]);
        // SRAM was fully released
        assert_eq!(mcu.sram_used(), 0);
        // and the pipeline peak fits in 64 KB
        assert!(rep.peak_sram <= 64 * 1024);
        // decompression inside the 450 ms budget
        assert!(
            rep.decompress_time_s < 0.45,
            "decompress {}",
            rep.decompress_time_s
        );
    }

    #[test]
    fn corrupt_block_detected() {
        let img = FirmwareImage::mcu("m", 70_000, 2);
        let mut upd = BlockedUpdate::build(&img);
        upd.blocks[1].payload[10] ^= 0xFF;
        let mut mcu = Mcu::new();
        let mut flash = Flash::new();
        let err = reassemble(&upd, &mut mcu, &mut flash, 4 << 20, 4096).unwrap_err();
        assert!(
            matches!(
                err,
                PipelineError::Corrupt { .. } | PipelineError::CrcMismatch
            ),
            "got {err:?}"
        );
        // SRAM must not leak on failure
        assert_eq!(mcu.sram_used(), 0);
    }

    #[test]
    fn crc_mismatch_detected() {
        let img = FirmwareImage::mcu("m", 50_000, 3);
        let mut upd = BlockedUpdate::build(&img);
        upd.image_crc32 ^= 1;
        let mut mcu = Mcu::new();
        let mut flash = Flash::new();
        assert_eq!(
            reassemble(&upd, &mut mcu, &mut flash, 4 << 20, 4096).unwrap_err(),
            PipelineError::CrcMismatch
        );
    }

    #[test]
    fn sram_budget_blocks_oversized_pipelines() {
        let img = FirmwareImage::mcu("m", 40_000, 4);
        let upd = BlockedUpdate::build(&img);
        let mut mcu = Mcu::new();
        // squat on most of the SRAM first
        mcu.alloc_sram("hog", 40 * 1024).unwrap();
        let mut flash = Flash::new();
        let err = reassemble(&upd, &mut mcu, &mut flash, 4 << 20, 4096).unwrap_err();
        assert!(matches!(err, PipelineError::Sram(_)));
        // the partial allocation rolled back
        assert_eq!(mcu.sram_used(), 40 * 1024);
    }

    #[test]
    fn wire_stream_round_trips_to_image_bytes() {
        for img in [
            FirmwareImage::ble_fpga(5),
            FirmwareImage::mcu("m", 70_001, 2), // non-block-aligned tail
            FirmwareImage::new(ImageKind::Mcu, "tiny", vec![0xA5; 17]),
        ] {
            let upd = BlockedUpdate::build(&img);
            let stream = upd.wire_stream();
            assert_eq!(stream.len(), upd.compressed_len(), "{}", img.name);
            assert_eq!(
                crate::protocol::packetize(&stream).len(),
                upd.packet_count(),
                "{}",
                img.name
            );
            let back = BlockedUpdate::unpack_wire_stream(&stream).unwrap();
            assert_eq!(back, img.data, "{}", img.name);
        }
    }

    #[test]
    fn corrupt_wire_stream_is_rejected_not_misparsed() {
        let img = FirmwareImage::mcu("m", 40_000, 9);
        let upd = BlockedUpdate::build(&img);
        let stream = upd.wire_stream();
        // truncation anywhere inside is an error or, at a block
        // boundary cut, a prefix of the image — never silent junk
        let cut = stream.len() / 2;
        assert!(BlockedUpdate::unpack_wire_stream(&stream[..cut]).is_err());
        // a nonzero reserved byte is rejected
        let mut bad = stream.clone();
        bad[8] = 1;
        assert!(BlockedUpdate::unpack_wire_stream(&bad).is_err());
        // an out-of-sequence index is rejected
        let mut bad = stream;
        bad[0] = 7;
        assert!(BlockedUpdate::unpack_wire_stream(&bad).is_err());
    }

    #[test]
    fn compressed_len_and_ratio() {
        let img = FirmwareImage::new(ImageKind::Mcu, "zeros", vec![0u8; 60_000]);
        let upd = BlockedUpdate::build(&img);
        assert!(upd.ratio() < 0.1);
        assert!(upd.compressed_len() < 6_000);
    }
}
