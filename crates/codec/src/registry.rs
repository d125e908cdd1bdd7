//! Format sniffing and codec dispatch.

use crate::wrappers::{DpzChunkedCodec, DpzCodec, SzCodec, ZfpCodec};
use crate::{Codec, Decoded, DpzError};
use std::io::Read;

/// The container formats the workspace understands, keyed by their 4-byte
/// magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// Single-stream DPZ container (`DPZ1`).
    Dpz,
    /// Chunked DPZ container (`DPZC`).
    DpzChunked,
    /// SZ-style baseline container (`SZR1`).
    Sz,
    /// ZFP-style baseline container (`ZFR1`).
    Zfp,
}

impl Format {
    /// All formats, in registry order.
    pub const ALL: [Format; 4] = [Format::Dpz, Format::DpzChunked, Format::Sz, Format::Zfp];

    /// The format's 4-byte magic.
    pub fn magic(self) -> &'static [u8; 4] {
        match self {
            Format::Dpz => b"DPZ1",
            Format::DpzChunked => b"DPZC",
            Format::Sz => b"SZR1",
            Format::Zfp => b"ZFR1",
        }
    }

    /// Human-readable name matching the owning codec's [`Codec::name`].
    pub fn name(self) -> &'static str {
        match self {
            Format::Dpz => "dpz",
            Format::DpzChunked => "dpzc",
            Format::Sz => "sz",
            Format::Zfp => "zfp",
        }
    }
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An ordered set of codecs with magic-based dispatch.
///
/// Decompression never needs the caller to know the format: the registry
/// probes the first bytes and routes to the owning codec. New codecs (or
/// test doubles) can be [`Registry::register`]ed at runtime.
pub struct Registry {
    codecs: Vec<Box<dyn Codec>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry { codecs: Vec::new() }
    }

    /// The built-in codec set: DPZ (default config), DPZ chunked, SZ, and
    /// ZFP — every format this workspace can emit.
    pub fn builtin() -> Self {
        let mut r = Registry::new();
        r.register(Box::new(DpzCodec::default()));
        r.register(Box::new(DpzChunkedCodec::default()));
        r.register(Box::new(SzCodec::default()));
        r.register(Box::new(ZfpCodec::default()));
        r
    }

    /// Add a codec. Sniffing asks codecs in registration order.
    pub fn register(&mut self, codec: Box<dyn Codec>) {
        self.codecs.push(codec);
    }

    /// The registered codecs, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Codec> {
        self.codecs.iter().map(|c| c.as_ref())
    }

    /// Look a codec up by [`Codec::name`].
    pub fn get(&self, name: &str) -> Option<&dyn Codec> {
        self.codecs
            .iter()
            .find(|c| c.name() == name)
            .map(|c| c.as_ref())
    }

    /// Identify the codec owning a stream that begins with `header`.
    pub fn sniff(&self, header: &[u8]) -> Option<(&dyn Codec, Format)> {
        self.codecs
            .iter()
            .find_map(|c| c.sniff(header).map(|f| (c.as_ref(), f)))
    }

    /// Sniff and decompress a complete in-memory stream.
    pub fn decompress(&self, bytes: &[u8]) -> Result<Decoded, DpzError> {
        let (codec, _) = self
            .sniff(bytes)
            .ok_or(DpzError::Corrupt("unknown container magic"))?;
        codec.decompress_from(&mut &bytes[..])
    }

    /// Sniff and decompress from a reader.
    pub fn decompress_from(&self, src: &mut dyn Read) -> Result<Decoded, DpzError> {
        let bytes = crate::read_all(src)?;
        self.decompress(&bytes)
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::builtin()
    }
}
