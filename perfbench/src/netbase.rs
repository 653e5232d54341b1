//! Same-run socket baselines: a bare loopback echo of a grant-sized frame
//! at the open-loop pacing, and `SegmentData`-sized writes to two sockets.
//! They are measured in the same process and run as the service, so the
//! service's numbers can be given as ratios that do not depend on the host.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use crate::client::REPLY_TIMEOUT;
use crate::util::{wait_ready, Rng, POLLIN};

/// Round trips, in ns, of `frame_len`-byte echoes sent open loop at
/// `rate` per second for `dur`, each timed from its due time. Echoes due
/// in the first `skip` are sent but not kept.
pub fn echo_rtts(
    frame_len: usize,
    rate: f64,
    dur: Duration,
    skip: Duration,
    rng: &mut Rng,
) -> io::Result<Vec<u64>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    thread::scope(|scope| {
        let server = thread::Builder::new()
            .name("pb-echo".to_owned())
            .spawn_scoped(scope, move || -> io::Result<()> {
                let (mut s, _) = listener.accept()?;
                s.set_nodelay(true)?;
                let mut buf = vec![0u8; frame_len];
                loop {
                    match s.read_exact(&mut buf) {
                        Ok(()) => s.write_all(&buf)?,
                        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
                        Err(e) => return Err(e),
                    }
                }
            })?;
        let mut c = TcpStream::connect(addr)?;
        c.set_nodelay(true)?;
        c.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let frame = vec![7u8; frame_len];
        let mut back = vec![0u8; frame_len];
        let mut rtt = Vec::new();
        let start = Instant::now();
        let end = start + dur;
        let mut due = start + Duration::from_secs_f64(rng.exp(1.0 / rate));
        while due < end {
            let now = Instant::now();
            if now < due {
                // Nothing arrives on the socket here: this waits until `due`
                // with the same wake-up the generators use.
                wait_ready(&c, POLLIN, Some(due - now))?;
                continue;
            }
            c.write_all(&frame)?;
            c.read_exact(&mut back)?;
            if due >= start + skip {
                rtt.push(due.elapsed().as_nanos() as u64);
            }
            due += Duration::from_secs_f64(rng.exp(1.0 / rate));
        }
        drop(c);
        server.join().expect("echo thread panicked")?;
        Ok(rtt)
    })
}

/// MB/s moved by one thread writing `chunk`-byte buffers alternately to
/// two loopback sockets while another reads both.
pub fn loopback_mbps(chunk: usize, seconds: f64) -> io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let mut outs = [TcpStream::connect(addr)?, TcpStream::connect(addr)?];
    let mut ins = [listener.accept()?.0, listener.accept()?.0];
    for s in ins.iter().chain(outs.iter()) {
        s.set_read_timeout(Some(REPLY_TIMEOUT))?;
        s.set_write_timeout(Some(REPLY_TIMEOUT))?;
    }
    let bytes_per_s = thread::scope(|scope| -> io::Result<f64> {
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        let reader = thread::Builder::new()
            .name("pb-gen-sink".to_owned())
            .spawn_scoped(scope, move || -> io::Result<u64> {
                let mut buf = vec![0u8; chunk];
                let mut rounds = 0;
                loop {
                    for s in &mut ins {
                        match s.read_exact(&mut buf) {
                            Ok(()) => {}
                            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                                return Ok(rounds)
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    rounds += 1;
                }
            })?;
        let buf = vec![5u8; chunk];
        let t0 = Instant::now();
        while Instant::now() < end {
            for s in &mut outs {
                s.write_all(&buf)?;
            }
        }
        for s in &mut outs {
            s.shutdown(std::net::Shutdown::Write)?;
        }
        let rounds = reader.join().expect("sink thread panicked")?;
        let secs = t0.elapsed().as_secs_f64();
        Ok(rounds as f64 * 2.0 * chunk as f64 / secs)
    })?;
    Ok(bytes_per_s / 1e6)
}
