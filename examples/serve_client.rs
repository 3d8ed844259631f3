//! Minimal `dd serve` client session, using the std-only client from
//! `dd_serve::client`. Run a server first:
//!
//! ```text
//! dd generate twitter --scale 300 --out graph.edges
//! dd train graph.edges --out model.ddm
//! dd serve model.ddm --port 8080
//! ```
//!
//! then:
//!
//! ```text
//! cargo run -p dd-serve --example serve_client -- 127.0.0.1:8080 3 17
//! ```

use dd_serve::client;

fn main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (addr, src, dst) = match args.as_slice() {
        [addr, src, dst] => (addr.as_str(), src.as_str(), dst.as_str()),
        _ => return Err("usage: serve_client <host:port> <src> <dst>".to_string()),
    };

    let health = client::get(addr, "/healthz")?;
    println!("healthz  [{}] {}", health.status, health.body.trim());

    let resp = client::get(addr, &format!("/score?src={src}&dst={dst}"))?;
    println!("score    [{}] {}", resp.status, resp.body.trim());

    let batch = format!("{{\"src\":{src},\"dst\":{dst}}}\n{{\"src\":{dst},\"dst\":{src}}}\n");
    let resp = client::post(addr, "/batch", &batch)?;
    println!("batch    [{}]", resp.status);
    for line in resp.body.lines().filter(|l| !l.trim().is_empty()) {
        println!("         {line}");
    }

    let metrics = client::get(addr, "/metrics")?;
    println!("metrics  [{}] {} lines", metrics.status, metrics.body.lines().count());
    for line in metrics.body.lines().filter(|l| l.starts_with("serve.requests.")) {
        println!("         {line}");
    }
    Ok(())
}
