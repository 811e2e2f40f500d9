#include "arraymodel/grid.h"

#include <cstdlib>

#include "support/diagnostics.h"

namespace sherlock::arraymodel {

int GridConfig::hopDistance(int a, int b) const {
  checkArg(configured(), "hop distance on an unconfigured grid");
  checkArg(a >= 0 && a < cells() && b >= 0 && b < cells(),
           "array ids (", a, ", ", b, ") outside the ", toString(),
           " grid");
  int dr = a / cols - b / cols;
  int dc = a % cols - b % cols;
  return std::abs(dr) + std::abs(dc);
}

GridConfig GridConfig::parse(const std::string& text) {
  size_t x = text.find_first_of("xX");
  checkArg(x != std::string::npos && x > 0 && x + 1 < text.size(),
           "grid '", text, "' is not of the form RxC");
  GridConfig g;
  size_t pos = 0;
  g.rows = std::stoi(text.substr(0, x), &pos);
  checkArg(pos == x, "grid rows '", text.substr(0, x), "' is not a number");
  std::string colsText = text.substr(x + 1);
  g.cols = std::stoi(colsText, &pos);
  checkArg(pos == colsText.size(),
           "grid cols '", colsText, "' is not a number");
  checkArg(g.rows > 0 && g.cols > 0,
           "grid '", text, "' must have positive dimensions");
  return g;
}

std::string GridConfig::toString() const {
  if (!configured()) return "unconfigured";
  return strCat(rows, "x", cols);
}

}  // namespace sherlock::arraymodel
