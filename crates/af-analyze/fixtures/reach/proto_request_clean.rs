// Fixture: the borrowed `PlaySamples` parser (an `alloc` root) returns
// fields and a slice of the payload it was given; the owned decoder makes
// its copy outside it.  (`decode` is never followed out of its own file —
// it is too common a name — which is why `parse` is a root by name.)

impl<'a> PlayView<'a> {
    fn parse(order: ByteOrder, payload: &'a [u8]) -> Result<PlayView<'a>, ProtoError> {
        let mut r = WireReader::new(order, payload);
        let ac = r.u32()?;
        let nbytes = r.u32()? as usize;
        Ok(PlayView {
            ac,
            data: r.bytes(nbytes)?,
        })
    }
}

impl Request {
    fn decode(order: ByteOrder, payload: &[u8]) -> Result<Request, ProtoError> {
        let play = PlayView::parse(order, payload)?;
        Ok(Request::PlaySamples {
            ac: play.ac,
            data: play.data.to_vec(),
        })
    }
}
