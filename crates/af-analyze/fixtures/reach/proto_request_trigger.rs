// Fixture: must trigger `alloc` once — the "borrowed" parser copies the
// samples it was only asked to find: 8 KB per play chunk, on the data
// plane, in a crate the dispatcher-rooted scan never enters.

impl PlayView {
    fn parse(order: ByteOrder, payload: &[u8]) -> Result<PlayView, ProtoError> {
        let mut r = WireReader::new(order, payload);
        let ac = r.u32()?;
        let nbytes = r.u32()? as usize;
        Ok(PlayView {
            ac,
            data: r.bytes(nbytes)?.to_vec(),
        })
    }
}
