//! Crash-safe per-cell results journal.
//!
//! The backbone cache makes reruns cheap; the journal makes them
//! *resumable*: every completed experiment cell stores its output rows
//! under a fingerprint of everything that determines them (`journal/v1`
//! over table, cell label, scale and master seed), one file per cell
//! under `<cache>/journal/`. A rerun of the suite replays journaled
//! cells instead of recomputing them, so a run killed mid-suite picks up
//! where it died and its completed output is byte-identical to an
//! uninterrupted run.
//!
//! The store is append-only in the unit of cells: files are only ever
//! added (each written atomically via [`eos_trace::write_atomic`], so a
//! crash mid-store leaves at most an orphan temp file, never a torn
//! entry). Cell outputs are the *strings* the tables render — already
//! deterministic and formatted — so replay cannot shift a digit. Numeric
//! side-channel values (fig7 learning curves, the pixel-EOS headline
//! BAC) cross the journal as the 16-hex-digit bit pattern of their
//! `f64`, decoded exactly on replay.
//!
//! Each entry is a sealed `EOSJ` artifact (layout in
//! [`eos_trace::codec`]). Body:
//!
//! ```text
//! u64 fp | u64 n_rows x ( u64 n_cells x ( u64-prefixed UTF-8 cell ) )
//! ```
//!
//! A truncated, bit-flipped or structurally impossible entry fails its
//! load with `Err`; callers treat that as "not journaled" and recompute
//! — identical bits, since cells derive their RNG from their spec
//! fingerprint, not from the journal.

use eos_trace::codec::{bad, Fnv, Reader, Writer};
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"EOSJ";
const VERSION: u32 = 1;

/// One cell's output: the rows it contributes to its table, each a list
/// of already-formatted strings.
pub type Rows = Vec<Vec<String>>;

/// Fingerprint identifying one cell's journal entry: the table, the cell
/// label within it, and the run identity (scale, seed). Versioned so a
/// row-format change orphans old entries instead of misreading them.
pub fn cell_fingerprint(table: &str, label: &str, scale: &str, seed: u64) -> u64 {
    let mut h = Fnv::new();
    h.str("journal/v1")
        .str(table)
        .str(label)
        .str(scale)
        .u64(seed);
    h.finish()
}

/// The journal rooted at one directory (conventionally
/// `<cache>/journal/`).
pub struct Journal {
    dir: PathBuf,
}

impl Journal {
    /// Journal rooted at an explicit directory.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Journal { dir: dir.into() }
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the entry for cell fingerprint `fp`.
    pub fn cell_path(&self, fp: u64) -> PathBuf {
        self.dir.join(format!("cell_{fp:016x}.eosj"))
    }

    /// Stores one cell's rows under `fp`, atomically. Returns the entry
    /// size in bytes.
    pub fn store(&self, fp: u64, rows: &Rows) -> io::Result<u64> {
        let mut w = Writer::new(MAGIC, VERSION);
        w.u64(fp).u64(rows.len() as u64);
        for row in rows {
            w.u64(row.len() as u64);
            for cell in row {
                w.bytes(cell.as_bytes());
            }
        }
        let payload = w.seal();
        std::fs::create_dir_all(&self.dir)?;
        eos_trace::write_atomic(&self.cell_path(fp), &payload)?;
        Ok(payload.len() as u64)
    }

    /// Loads the entry stored under `fp`. `Ok(None)` means the cell was
    /// never journaled; `Err` means an entry exists but cannot be
    /// trusted — the caller recomputes in both cases.
    pub fn load(&self, fp: u64) -> io::Result<Option<Rows>> {
        let path = self.cell_path(fp);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Ok(Some(parse(fp, &bytes)?))
    }
}

fn parse(fp: u64, bytes: &[u8]) -> io::Result<Rows> {
    let mut r = Reader::open_sealed(bytes, MAGIC, VERSION)?;
    if r.u64()? != fp {
        return Err(bad("fingerprint mismatch (entry stored under wrong name)"));
    }
    let n_rows = r.count(8)?;
    let mut rows = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let n_cells = r.count(8)?;
        let mut row = Vec::with_capacity(n_cells);
        for _ in 0..n_cells {
            let cell = r.bytes()?.to_vec();
            row.push(String::from_utf8(cell).map_err(|_| bad("cell text is not UTF-8"))?);
        }
        rows.push(row);
    }
    r.finish()?;
    Ok(rows)
}

/// Encodes an `f64` as its exact 16-hex-digit bit pattern for a journal
/// row, so replayed values are bit-identical to computed ones.
pub fn enc_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Decodes [`enc_f64`]'s encoding. `Err` means the row does not carry a
/// bit pattern — a version-skewed or hand-edited entry.
pub fn dec_f64(s: &str) -> io::Result<f64> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| bad(format!("'{s}' is not an f64 bit pattern")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_journal(tag: &str) -> Journal {
        let dir = std::env::temp_dir().join(format!("eos_journal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Journal::at(dir)
    }

    fn sample_rows() -> Rows {
        vec![
            vec!["EOS".into(), "0.731".into(), "+4.2".into()],
            vec!["SMOTE".into(), "".into(), "naïve-utf8 ✓".into()],
            vec![],
        ]
    }

    #[test]
    fn roundtrip_preserves_rows_exactly() {
        let j = temp_journal("roundtrip");
        let fp = cell_fingerprint("table2", "celeba/Ce", "smoke", 42);
        assert!(j.load(fp).unwrap().is_none(), "fresh journal is empty");
        let rows = sample_rows();
        let stored = j.store(fp, &rows).unwrap();
        assert!(stored > 0);
        assert_eq!(j.load(fp).unwrap().unwrap(), rows);
        let _ = std::fs::remove_dir_all(j.dir());
    }

    #[test]
    fn corrupt_entries_fail_loudly_not_fatally() {
        let j = temp_journal("corrupt");
        let fp = 7;
        j.store(fp, &sample_rows()).unwrap();
        let path = j.cell_path(fp);
        let good = std::fs::read(&path).unwrap();
        for cut in [3, good.len() / 2, good.len() - 2] {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(j.load(fp).is_err(), "cut at {cut} accepted");
        }
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        assert!(j.load(fp).is_err());
        // An entry stored under the wrong fingerprint is rejected too.
        std::fs::write(&path, &good).unwrap();
        assert!(j.load(fp).unwrap().is_some());
        std::fs::rename(&path, j.cell_path(8)).unwrap();
        assert!(j.load(8).is_err());
        let _ = std::fs::remove_dir_all(j.dir());
    }

    #[test]
    fn fingerprint_separates_cells_and_runs() {
        let base = cell_fingerprint("table2", "celeba/Ce", "smoke", 42);
        assert_eq!(base, cell_fingerprint("table2", "celeba/Ce", "smoke", 42));
        assert_ne!(base, cell_fingerprint("table3", "celeba/Ce", "smoke", 42));
        assert_ne!(base, cell_fingerprint("table2", "celeba/Ldam", "smoke", 42));
        assert_ne!(base, cell_fingerprint("table2", "celeba/Ce", "small", 42));
        assert_ne!(base, cell_fingerprint("table2", "celeba/Ce", "smoke", 43));
    }

    #[test]
    fn f64_bits_round_trip() {
        for v in [0.0, -0.0, 1.5, -3.25e300, f64::MIN_POSITIVE, f64::NAN] {
            let back = dec_f64(&enc_f64(v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        assert!(dec_f64("not-hex").is_err());
        assert!(dec_f64("0.731").is_err());
    }

    /// Golden EOSJ bytes of [`sample_rows`] plus the pinned cell
    /// fingerprint they are stored under.
    #[test]
    fn golden_eosj_bytes_and_cell_fingerprint() {
        let fp = cell_fingerprint("table2", "celeba/Ce", "smoke", 42);
        assert_eq!(fp, 0xdc7e6344314d94);
        let j = temp_journal("golden");
        let rows = sample_rows();
        j.store(fp, &rows).unwrap();
        let bytes = std::fs::read(j.cell_path(fp)).unwrap();
        assert_eq!(
            (bytes.len(), eos_nn::fnv1a(&bytes)),
            (136, 0xd09c53813b0e6bcb)
        );
        assert_eq!(j.load(fp).unwrap().unwrap(), rows);
        let _ = std::fs::remove_dir_all(j.dir());
    }
}
