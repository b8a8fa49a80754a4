#include "src/serve/admin.hpp"

#include <string>

#include "src/obs/obs.hpp"
#include "src/serve/server.hpp"

namespace hpcp::serve {

namespace {

std::string http_response(int status, const char* reason,
                          std::string_view content_type,
                          std::string body) {
  std::string out = "HTTP/1.0 ";
  out += std::to_string(status);
  out += ' ';
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

constexpr std::string_view kJson = "application/json";
constexpr std::string_view kText = "text/plain; charset=utf-8";
/// The content type Prometheus scrapers negotiate for the text format.
constexpr std::string_view kPromText =
    "text/plain; version=0.0.4; charset=utf-8";

/// "GET /statsz HTTP/1.0" -> ("GET", "/statsz"). Query strings are
/// stripped: scrapers sometimes append cache busters.
bool parse_request_line(std::string_view head, std::string_view* method,
                        std::string_view* target) {
  const std::size_t eol = head.find_first_of("\r\n");
  std::string_view line =
      eol == std::string_view::npos ? head : head.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  *method = line.substr(0, sp1);
  *target = sp2 == std::string_view::npos
                ? line.substr(sp1 + 1)
                : line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = target->find('?');
  if (query != std::string_view::npos) *target = target->substr(0, query);
  return !target->empty();
}

}  // namespace

bool admin_request_complete(std::string_view inbuf) {
  return inbuf.find("\r\n\r\n") != std::string_view::npos ||
         inbuf.find("\n\n") != std::string_view::npos ||
         // A bare request line followed by one newline is accepted too:
         // "GET /metrics HTTP/1.0\n" from a hand-rolled probe is
         // unambiguous — everything this plane needs is on line one.
         inbuf.find('\n') != std::string_view::npos;
}

std::string handle_admin_request(Server& server, std::string_view inbuf,
                                 bool overflow) {
  obs::count("serve.admin_requests");
  if (overflow) {
    obs::count("serve.admin_errors");
    return http_response(431, "Request Header Fields Too Large", kText,
                         "request head too large\n");
  }
  std::string_view method;
  std::string_view target;
  if (!parse_request_line(inbuf, &method, &target)) {
    obs::count("serve.admin_errors");
    return http_response(400, "Bad Request", kText, "malformed request\n");
  }
  if (method != "GET") {
    obs::count("serve.admin_errors");
    return http_response(405, "Method Not Allowed", kText,
                         "only GET is served here\n");
  }
  if (target == "/metrics") {
    return http_response(200, "OK", kPromText,
                         obs::global_metrics().to_prometheus());
  }
  if (target == "/healthz") {
    std::string body = server.render_health_json();
    body += '\n';
    // Only "no model store at all" is a scrape-level failure; a failing
    // tenant degrades itself alone and the probe stays 200.
    const bool unavailable =
        body.find("\"status\":\"unavailable\"") != std::string::npos;
    return http_response(unavailable ? 503 : 200,
                         unavailable ? "Service Unavailable" : "OK", kJson,
                         std::move(body));
  }
  if (target == "/statsz") {
    std::string body = server.render_stats_json();
    body += '\n';
    return http_response(200, "OK", kJson, std::move(body));
  }
  obs::count("serve.admin_errors");
  return http_response(404, "Not Found", kText, "not found\n");
}

}  // namespace hpcp::serve
